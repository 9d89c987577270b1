module Bitvec = Dstress_util.Bitvec
module Prg = Dstress_crypto.Prg
module Xfer = Dstress_crypto.Xfer
module Ot_ext = Dstress_crypto.Ot_ext
module Circuit = Dstress_circuit.Circuit

(* Attached offline material and a cursor counting evaluations already
   served from it. The cursor also advances on inline evaluations of the
   matching circuit, so entry [k] always corresponds to evaluation [k]. *)
type preload = { mat : Triple.material; mutable next : int }

type session = {
  mode : Ot_ext.mode;
  grp : Dstress_crypto.Group.t;
  n : int;
  prgs : Prg.t array; (* per-party local randomness *)
  ot : Ot_ext.session option array array; (* [sender][receiver], lazy *)
  traffic : Traffic.t;
  mutable rounds : int;
  mutable and_gates : int;
  mutable ots : int;
  mutable pre : preload option;
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
    ot = Array.make_matrix parties parties None;
    traffic = Traffic.create parties;
    rounds = 0;
    and_gates = 0;
    ots = 0;
    pre = None;
  }

let parties s = s.n

(* Fold a pairwise transfer account (a = sender, b = receiver) into the
   traffic matrix. Each exchange uses a fresh account, so attribution is
   exact — nothing is reset in place. *)
let drain_xfer s xfer ~sender ~receiver =
  Traffic.add s.traffic ~src:sender ~dst:receiver (Xfer.a_to_b xfer);
  Traffic.add s.traffic ~src:receiver ~dst:sender (Xfer.b_to_a xfer)

let ot_session s ~sender ~receiver =
  match s.ot.(sender).(receiver) with
  | Some session -> session
  | None ->
      let xfer = Xfer.create () in
      let session =
        Ot_ext.setup ~mode:s.mode s.grp xfer ~sender_prg:s.prgs.(sender)
          ~receiver_prg:s.prgs.(receiver)
      in
      drain_xfer s xfer ~sender ~receiver;
      s.ot.(sender).(receiver) <- Some session;
      session

let share_input s v = Sharing.share s.prgs.(0) ~parties:s.n v

(* Draw [m] mask bits from [prg] as one bulk byte draw: bit [g] is the low
   bit of byte [g]. *)
let draw_mask_bytes prg m = Prg.bytes prg m

(* ------------------------------------------------------------------ *)
(* Offline phase: generate / attach / consume correlated randomness     *)
(* ------------------------------------------------------------------ *)

(* Replay, on a fresh throwaway session with the same seed, exactly the
   randomness the online evaluator consumes for [evals] evaluations of
   [plan]: per evaluation, per AND level, per ordered pair — the lazy OT
   setup (first evaluation only) followed by the sender's bulk mask draw.
   Per-party PRG states are snapshotted after each evaluation so the
   consumer can restore them and stay stream-exact. *)
let generate_material ?mode grp ~parties ~seed ~evals plan =
  if evals < 0 then invalid_arg "Gmw.generate_material: evals < 0";
  let s = create_session ?mode grp ~parties ~seed in
  let levels = Plan.levels plan in
  let eval_mats =
    Array.init evals (fun _ ->
        let masks =
          Array.map
            (fun (lv : Plan.level) ->
              let m = Array.length lv.Plan.and_dst in
              let level_masks = Array.make (parties * parties) Bytes.empty in
              for sender = 0 to parties - 1 do
                for receiver = 0 to parties - 1 do
                  if sender <> receiver then begin
                    ignore (ot_session s ~sender ~receiver);
                    level_masks.((sender * parties) + receiver) <-
                      draw_mask_bytes s.prgs.(sender) m
                  end
                done
              done;
              level_masks)
            levels
        in
        { Triple.masks; post_prgs = Array.map Prg.copy s.prgs })
  in
  {
    Triple.digest = Plan.digest plan;
    parties;
    seed;
    ot_mode = s.mode;
    evals = eval_mats;
    ot = s.ot;
    setup_traffic = s.traffic;
  }

let attach_material s (mat : Triple.material) =
  if s.rounds <> 0 || s.ots <> 0 then
    invalid_arg "Gmw.attach_material: session has already evaluated";
  Array.iter
    (Array.iter (fun o ->
         if Option.is_some o then
           invalid_arg "Gmw.attach_material: OT sessions already established"))
    s.ot;
  if mat.Triple.parties <> s.n then invalid_arg "Gmw.attach_material: party count mismatch";
  if mat.Triple.ot_mode <> s.mode then invalid_arg "Gmw.attach_material: OT mode mismatch";
  for i = 0 to s.n - 1 do
    for j = 0 to s.n - 1 do
      s.ot.(i).(j) <- Option.map Ot_ext.copy_session mat.Triple.ot.(i).(j)
    done
  done;
  (* Inline, base-OT setup traffic is charged lazily during the first
     evaluation; nothing reads the matrix between attach and then, so
     charging it here is observationally the same. *)
  Traffic.merge_into ~dst:s.traffic mat.Triple.setup_traffic;
  s.pre <- Some { mat; next = 0 }

let material_remaining s =
  match s.pre with
  | None -> 0
  | Some c -> max 0 (Array.length c.mat.Triple.evals - c.next)

(* Claim this evaluation's slot in the attached material. Returns the
   pre-drawn entry when one is left; on a digest mismatch the material is
   dropped entirely (its PRG snapshots assume the session evaluates only
   the matching circuit); once exhausted the cursor keeps advancing and
   evaluation falls back to inline draws — correct automatically, because
   the restored snapshots equal the pure-inline PRG states. *)
let take_pre s plan =
  match s.pre with
  | None -> None
  | Some c ->
      if not (String.equal c.mat.Triple.digest (Plan.digest plan)) then begin
        s.pre <- None;
        None
      end
      else begin
        let i = c.next in
        c.next <- i + 1;
        if i < Array.length c.mat.Triple.evals then Some c.mat.Triple.evals.(i) else None
      end

let restore_post s (e : Triple.eval) =
  Array.iteri (fun p prg -> s.prgs.(p) <- Prg.copy prg) e.Triple.post_prgs

(* ------------------------------------------------------------------ *)
(* Evaluation                                                           *)
(* ------------------------------------------------------------------ *)

(* Wire and mask words live unboxed, 8 bytes each, in [Bytes]: word [i]
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
   evaluation is the one-slot case. Wire values are 64-bit words: bit [sl]
   of every word belongs to instance [sl], so local gates cost one word op
   for all instances. Everything observable per instance is independent of
   how many instances share the batch:
   - mask bits come from the instance's own sender PRG bytes, drawn in a
     fixed order (level, then receiver, then gate);
   - each instance's OT pair session is set up lazily on first use,
     consuming its own PRG bytes and charging its own base-OT traffic;
   - extension traffic is charged per instance with the formula
     {!Ot_ext.extend_bits} meters for a batch of m bit OTs
     (kappa * ceil(m/8) receiver->sender, 2 * ceil(m/8) sender->receiver
     per pair and level), not as a 1/slots share of a batched transfer,
     since ceil(64m/8) <> 64 * ceil(m/8);
   - rounds/AND/OT counters advance per instance.
   Each AND gate's cross term for an ordered pair is one bit OT whose
   receiver output is the ideal chosen message mask XOR (x_s AND y_r).
   Simulation OT hands the receiver exactly that, and so does the IKNP
   carrier whenever every slot consumes pre-drawn material (a column
   stream nobody draws from is unobservable), so both compute it inline.
   Only Crypto mode with an inline slot runs the faithful word-level
   batch ({!Ot_ext.extend_words}) on slot 0's pair session, discarding
   its honest batch meter in favour of the per-instance split. *)
let eval_sliced plan sessions input_shares =
  let slots = Array.length sessions in
  let s0 = sessions.(0) in
  let n = s0.n in
  (* Per-slot offline material: a consuming slot takes its mask bytes from
     the pre-drawn entry instead of its PRG (and needs no lazy OT setup —
     attach installed the sessions); the carrier batch computes every
     lane as the ideal chosen message, so mixed consume / inline slots
     coexist in one batch. *)
  let pres = Array.map (fun s -> take_pre s plan) sessions in
  let ideal_ot = s0.mode = Ot_ext.Simulation || Array.for_all Option.is_some pres in
  let slot_mask = if slots = lanes then -1L else Int64.sub (Int64.shift_left 1L slots) 1L in
  (* Zero-filled: inputs OR their lanes in, constants set party 0 only. *)
  let vals = Array.init n (fun _ -> Bytes.make (8 * Plan.num_wires plan) '\000') in
  let levels = Plan.levels plan in
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
  Array.iteri
    (fun li (lv : Plan.level) ->
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
              let s = sessions.(sl) in
              let raw =
                match pres.(sl) with
                | Some e -> e.Triple.masks.(li).((sender * n) + receiver)
                | None ->
                    ignore (ot_session s ~sender ~receiver);
                    draw_mask_bytes s.prgs.(sender) m
              in
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
              let carrier = ot_session s0 ~sender ~receiver in
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
  Array.iteri
    (fun sl pre -> match pre with Some e -> restore_post sessions.(sl) e | None -> ())
    pres;
  let outputs = (Plan.circuit plan).Circuit.outputs in
  Array.init slots (fun sl ->
      Array.init n (fun p ->
          Bitvec.init (Array.length outputs) (fun o ->
              Int64.logand (Int64.shift_right_logical (word vals.(p) outputs.(o)) sl) 1L = 1L)))

let check_shares ~parties circuit shares =
  if Array.length shares <> parties then
    invalid_arg "Gmw.eval: need one input share vector per party";
  Array.iter
    (fun v ->
      if Bitvec.length v <> circuit.Circuit.num_inputs then
        invalid_arg "Gmw.eval: input share length mismatch")
    shares

let eval s circuit ~input_shares =
  check_shares ~parties:s.n circuit input_shares;
  (eval_sliced (Plan.of_circuit circuit) [| s |] [| input_shares |]).(0)

let eval_many sessions circuit ~input_shares =
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
    Array.iter (check_shares ~parties:n circuit) input_shares;
    let plan = Plan.of_circuit circuit in
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
