module Bitvec = Dstress_util.Bitvec
module Prg = Dstress_crypto.Prg
module Xfer = Dstress_crypto.Xfer
module Ot_ext = Dstress_crypto.Ot_ext
module Circuit = Dstress_circuit.Circuit

type session = {
  mode : Ot_ext.mode;
  grp : Dstress_crypto.Group.t;
  n : int;
  prgs : Prg.t array; (* per-party local randomness *)
  mutable ot : Ot_ext.session option array array;
      (* [sender][receiver], diagonal [None]; [||] until set up *)
  traffic : Traffic.t;
  mutable rounds : int;
  mutable and_gates : int;
  mutable ots : int;
}

let create_session ?(mode = Ot_ext.Crypto) grp ~parties ~seed =
  if parties < 2 then invalid_arg "Gmw.create_session: parties < 2";
  let prgs =
    Array.init parties (fun p -> Prg.of_string (Printf.sprintf "gmw:%s:party:%d" seed p))
  in
  {
    mode;
    grp;
    n = parties;
    prgs;
    ot = [||];
    traffic = Traffic.create parties;
    rounds = 0;
    and_gates = 0;
    ots = 0;
  }

let parties s = s.n

(* Fold a pairwise transfer account (a = sender, b = receiver) into the
   traffic matrix. Each exchange uses a fresh account, so attribution is
   exact — nothing is reset in place. *)
let drain_xfer s xfer ~sender ~receiver =
  Traffic.add s.traffic ~src:sender ~dst:receiver (Xfer.a_to_b xfer);
  Traffic.add s.traffic ~src:receiver ~dst:sender (Xfer.b_to_a xfer)

(* Set up every ordered pair's OT session, sender-major, charging its
   base-OT traffic. A session does this once, before its first mask
   draw, so no setup draw ever lands between mask draws. *)
let setup_ots s =
  if Array.length s.ot = 0 then
    s.ot <-
      Array.init s.n (fun sender ->
          Array.init s.n (fun receiver ->
              if sender = receiver then None
              else begin
                let xfer = Xfer.create () in
                let session =
                  Ot_ext.setup ~mode:s.mode s.grp xfer ~sender_prg:s.prgs.(sender)
                    ~receiver_prg:s.prgs.(receiver)
                in
                drain_xfer s xfer ~sender ~receiver;
                Some session
              end))

let share_input s v = Sharing.share s.prgs.(0) ~parties:s.n v

(* Draw [m] mask bits from [prg] as one bulk byte draw: bit [g] is the low
   bit of byte [g]. *)
let draw_mask_bytes prg m = Prg.bytes prg m

(* Every mask byte is a function of the session seed, so the offline
   phase only has to compute ahead the keystream the evaluations will
   draw: each party, as the sender of n - 1 pairs, draws one byte per
   AND gate and receiver. *)
let preprocess s plan ~evals =
  if evals < 0 then invalid_arg "Gmw.preprocess: evals < 0";
  let draws = evals * (s.n - 1) * Plan.and_count plan in
  if draws > 0 then begin
    setup_ots s;
    Array.iter (fun prg -> Prg.prefetch prg draws) s.prgs
  end

(* ------------------------------------------------------------------ *)
(* Evaluation                                                           *)
(* ------------------------------------------------------------------ *)

(* The wire and mask words live unboxed, 8 bytes each, in [Bytes]: word [i]
   of a buffer sits at byte offset [8 * i]. These are the bounds-checked
   primitives behind [Bytes.get_int64_ne]/[set_int64_ne], declared here so
   every read and write compiles to a plain load or store and no [Int64]
   is boxed per wire, gate or level. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let[@inline] word b i = get64 b (i lsl 3)
let[@inline] set_word b i v = set64 b (i lsl 3) v

let lanes = 64

(* Evaluate up to [lanes] sessions in lockstep over one compiled plan; a single
   evaluation is the one-slot case. A wire's value is a 64-bit word: bit [sl]
   of every word belongs to instance [sl], so local gates cost one word op
   for all instances. Everything observable per instance is independent of
   how many instances share the batch:
   - each instance sets up all its OT pair sessions before its first
     mask draw (at its first evaluation with an AND level, unless
     {!preprocess} did), consuming its own PRG bytes and charging its own
     base-OT traffic;
   - mask bits come from the instance's own sender PRG bytes, drawn in a
     fixed order (level, then receiver, then gate);
   - extension traffic is charged per instance with the formula
     {!Ot_ext.extend_bits} meters for a batch of m bit OTs
     (kappa * ceil(m/8) receiver->sender, 2 * ceil(m/8) sender->receiver
     per pair and level), not as a 1/slots share of a batched transfer,
     since ceil(64m/8) <> 64 * ceil(m/8);
   - rounds/AND/OT counters advance per instance.
   Each AND gate's cross term for an ordered pair is one bit OT whose
   receiver output is the ideal chosen message mask XOR (x_s AND y_r).
   Simulation OT hands the receiver exactly that, so it is computed
   inline. Crypto mode runs the faithful word-level batch
   ({!Ot_ext.extend_words}) on slot 0's pair session, discarding its
   honest batch meter in favour of the per-instance split. *)
let eval_sliced plan sessions input_shares =
  let slots = Array.length sessions in
  let s0 = sessions.(0) in
  let n = s0.n in
  let ideal_ot = s0.mode = Ot_ext.Simulation in
  let slot_mask = if slots = lanes then -1L else Int64.sub (Int64.shift_left 1L slots) 1L in
  (* Zero-filled: inputs OR their lanes in, constants set party 0 only. *)
  let vals = Array.init n (fun _ -> Bytes.make (8 * Plan.num_wires plan) '\000') in
  let levels = Plan.levels plan in
  if Array.length levels > 0 then Array.iter setup_ots sessions;
  let widest = Array.fold_left (fun w lv -> max w (Array.length lv.Plan.and_dst)) 0 levels in
  let masks = Bytes.create (8 * widest) in
  let apply op =
    match op with
    | Plan.Load_input { dst; input } ->
        for p = 0 to n - 1 do
          let vp = vals.(p) in
          for sl = 0 to slots - 1 do
            if Bitvec.unsafe_get input_shares.(sl).(p) input then
              set_word vp dst (Int64.logor (word vp dst) (Int64.shift_left 1L sl))
          done
        done
    | Plan.Load_const { dst; value } -> set_word vals.(0) dst (if value then slot_mask else 0L)
    | Plan.Local_not { dst; src } ->
        set_word vals.(0) dst (Int64.logxor (word vals.(0) src) slot_mask);
        for p = 1 to n - 1 do
          set_word vals.(p) dst (word vals.(p) src)
        done
    | Plan.Local_xor { dst; a; b } ->
        for p = 0 to n - 1 do
          let vp = vals.(p) in
          set_word vp dst (Int64.logxor (word vp a) (word vp b))
        done
  in
  Array.iter apply (Plan.prologue plan);
  Array.iter
    (fun (lv : Plan.level) ->
      let dst = lv.Plan.and_dst and wa = lv.Plan.and_a and wb = lv.Plan.and_b in
      let m = Array.length dst in
      (* Local terms x_p * y_p, all slots at once. No AND of this level
         reads another's destination (its operands sit at lower levels),
         so the cross terms below may update destinations in place. *)
      for p = 0 to n - 1 do
        let vp = vals.(p) in
        for g = 0 to m - 1 do
          set_word vp dst.(g) (Int64.logand (word vp wa.(g)) (word vp wb.(g)))
        done
      done;
      for sender = 0 to n - 1 do
        for receiver = 0 to n - 1 do
          if sender <> receiver then begin
            Bytes.fill masks 0 (8 * m) '\000';
            for sl = 0 to slots - 1 do
              let raw = draw_mask_bytes sessions.(sl).prgs.(sender) m in
              for g = 0 to m - 1 do
                let bit = Int64.of_int (Char.code (Bytes.get raw g) land 1) in
                set_word masks g (Int64.logor (word masks g) (Int64.shift_left bit sl))
              done
            done;
            let vs = vals.(sender) and vr = vals.(receiver) in
            if ideal_ot then
              for g = 0 to m - 1 do
                let w = dst.(g) in
                set_word vs w (Int64.logxor (word vs w) (word masks g));
                set_word vr w
                  (Int64.logxor (word vr w)
                     (Int64.logxor (word masks g)
                        (Int64.logand (word vs wa.(g)) (word vr wb.(g)))))
              done
            else begin
              let pairs =
                Array.init m (fun g ->
                    (word masks g, Int64.logxor (word masks g) (word vs wa.(g))))
              in
              let choices = Array.init m (fun g -> word vr wb.(g)) in
              let carrier = Option.get s0.ot.(sender).(receiver) in
              (* The bulk transfer is re-attributed per slot below, so
                 the carrier's own account is a discarded scratch. *)
              let outs =
                Ot_ext.extend_words carrier (Xfer.create ()) ~width:slots ~pairs ~choices
              in
              for g = 0 to m - 1 do
                let w = dst.(g) in
                set_word vs w (Int64.logxor (word vs w) (word masks g));
                set_word vr w (Int64.logxor (word vr w) outs.(g))
              done
            end;
            let col = Ot_ext.kappa * ((m + 7) / 8) and row = 2 * ((m + 7) / 8) in
            for sl = 0 to slots - 1 do
              let s = sessions.(sl) in
              Traffic.add s.traffic ~src:receiver ~dst:sender col;
              Traffic.add s.traffic ~src:sender ~dst:receiver row;
              s.ots <- s.ots + m
            done
          end
        done
      done;
      for sl = 0 to slots - 1 do
        let s = sessions.(sl) in
        s.and_gates <- s.and_gates + m;
        s.rounds <- s.rounds + 1
      done;
      Array.iter apply lv.Plan.post)
    levels;
  let outputs = (Plan.circuit plan).Circuit.outputs in
  Array.init slots (fun sl ->
      Array.init n (fun p ->
          Bitvec.init (Array.length outputs) (fun o ->
              Int64.logand (Int64.shift_right_logical (word vals.(p) outputs.(o)) sl) 1L = 1L)))

let check_shares ~parties plan shares =
  if Array.length shares <> parties then
    invalid_arg "Gmw.eval: need one input share vector per party";
  Array.iter
    (fun v ->
      if Bitvec.length v <> (Plan.circuit plan).Circuit.num_inputs then
        invalid_arg "Gmw.eval: input share length mismatch")
    shares

let eval s plan ~input_shares =
  check_shares ~parties:s.n plan input_shares;
  (eval_sliced plan [| s |] [| input_shares |]).(0)

let eval_many sessions plan ~input_shares =
  let count = Array.length sessions in
  if Array.length input_shares <> count then
    invalid_arg "Gmw.eval_many: need one input-share set per session";
  if count = 0 then [||]
  else begin
    let n = sessions.(0).n and mode = sessions.(0).mode in
    Array.iter
      (fun s ->
        if s.n <> n || s.mode <> mode then
          invalid_arg "Gmw.eval_many: sessions must agree on party count and OT mode")
      sessions;
    Array.iter (check_shares ~parties:n plan) input_shares;
    let out = Array.make count [||] in
    let pos = ref 0 in
    while !pos < count do
      let slots = min lanes (count - !pos) in
      let chunk =
        eval_sliced plan (Array.sub sessions !pos slots) (Array.sub input_shares !pos slots)
      in
      Array.blit chunk 0 out !pos slots;
      pos := !pos + slots
    done;
    out
  end

let reveal s shares =
  let bits = Bitvec.length shares.(0) in
  let bytes = (bits + 7) / 8 in
  (* All-to-all broadcast of shares. *)
  for src = 0 to s.n - 1 do
    for dst = 0 to s.n - 1 do
      if src <> dst then Traffic.add s.traffic ~src ~dst bytes
    done
  done;
  Sharing.reconstruct shares

let observe s obs =
  let module Obs = Dstress_obs.Obs in
  Obs.incr obs "mpc.sessions";
  Obs.incr obs ~by:s.rounds "mpc.rounds";
  Obs.incr obs ~by:s.and_gates "mpc.and_gates";
  Obs.incr obs ~by:s.ots "mpc.ots"

let traffic s = s.traffic

let reset_traffic s = Traffic.clear s.traffic

let rounds s = s.rounds
let and_gates_evaluated s = s.and_gates
let ots_performed s = s.ots
