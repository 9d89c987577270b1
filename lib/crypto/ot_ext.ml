module Bitvec = Dstress_util.Bitvec

let kappa = 128
let seed_bytes = 16

type mode = Crypto | Simulation

(* The IKNP state of a Crypto session. *)
type iknp = {
  s : bool array; (* sender's secret correlation string, kappa bits *)
  sender_cols : Prg.t array; (* sender's view: PRG(k_i^{s_i}) *)
  recv_cols0 : Prg.t array; (* receiver's view: PRG(k_i^0) *)
  recv_cols1 : Prg.t array; (* PRG(k_i^1) *)
}

type session = {
  iknp : iknp option; (* [None] in Simulation: the ideal OT functionality *)
  mutable index : int; (* monotone OT counter, tweaks the row hash *)
}

let setup ?(mode = Crypto) grp meter ~sender_prg ~receiver_prg =
  match mode with
  | Simulation ->
      (* No key material is drawn, but both streams move past what the
         Crypto setup draws outside its base OTs (the sender's kappa
         choice bytes, the receiver's 2 * kappa seeds), so every later
         draw keeps its stream position. The meter charges what the kappa
         base OTs move: a public key one way, two ciphertexts back. *)
      Prg.skip sender_prg kappa;
      Prg.skip receiver_prg (2 * kappa * seed_bytes);
      let ebytes = Group.element_bytes grp in
      Xfer.add_a_to_b meter (kappa * ebytes);
      Xfer.add_b_to_a meter (kappa * 2 * (ebytes + seed_bytes));
      { iknp = None; index = 0 }
  | Crypto ->
      let s = Array.init kappa (fun _ -> Prg.bool sender_prg) in
      let point = Ot.random_point grp "dstress-base-ot" in
      let seeds =
        Array.init kappa (fun i ->
            (* Roles reverse in the base phase: the extension receiver owns
               both seeds; the extension sender obliviously learns the one
               selected by its secret bit s_i. The meter convention stays
               (a = extension sender), so meter through a flipped
               sub-meter. *)
            let k0 = Prg.bytes receiver_prg seed_bytes in
            let k1 = Prg.bytes receiver_prg seed_bytes in
            let sub = Xfer.create () in
            let chosen =
              Ot.base_ot grp sub ~point ~sender_prg:receiver_prg ~receiver_prg:sender_prg
                ~m0:k0 ~m1:k1 ~choice:s.(i)
            in
            Xfer.add_b_to_a meter (Xfer.a_to_b sub);
            Xfer.add_a_to_b meter (Xfer.b_to_a sub);
            (k0, k1, chosen))
      in
      let cols pick = Array.map (fun k -> Prg.create (pick k)) seeds in
      let iknp =
        {
          s;
          sender_cols = cols (fun (_, _, chosen) -> chosen);
          recv_cols0 = cols (fun (k0, _, _) -> k0);
          recv_cols1 = cols (fun (_, k1, _) -> k1);
        }
      in
      { iknp = Some iknp; index = 0 }

(* ------------------------------------------------------------------ *)
(* Row hashing                                                         *)
(* ------------------------------------------------------------------ *)

let pack_row row =
  let packed = Bytes.make (kappa / 8) '\x00' in
  Array.iteri
    (fun i b ->
      if b then
        Bytes.set packed (i / 8)
          (Char.chr (Char.code (Bytes.get packed (i / 8)) lor (1 lsl (i mod 8)))))
    row;
  packed

let sha_row_hash j row len =
  let tag = Bytes.of_string (Printf.sprintf "iknp:%d:" j) in
  Prg.bytes (Prg.create (Sha256.digest (Bytes.cat tag (pack_row row)))) len

(* ------------------------------------------------------------------ *)
(* Extension                                                           *)
(* ------------------------------------------------------------------ *)

(* Shared core: expand the column PRGs for a batch of m OTs and derive
   the sender's q-columns (q_i = t_i xor s_i * r), metering the u-matrix
   transfer. Columns are plain bool arrays: [.(i).(j)] is bit j of
   column i. *)
let run_matrix k meter choices =
  let m = Array.length choices in
  let expand g = Bitvec.to_bool_array (Prg.bits g m) in
  let t_cols = Array.map expand k.recv_cols0 in
  let w_cols = Array.map expand k.recv_cols1 in
  (* u_i = t_i xor w_i xor r is sent to the sender: kappa * m bits. *)
  Xfer.add_b_to_a meter (kappa * ((m + 7) / 8));
  let q_cols =
    Array.init kappa (fun i ->
        let own = expand k.sender_cols.(i) in
        if not k.s.(i) then own
        else
          Array.mapi
            (fun j o -> o <> t_cols.(i).(j) <> w_cols.(i).(j) <> choices.(j))
            own)
  in
  (t_cols, q_cols)

let row_of cols j = Array.init kappa (fun i -> cols.(i).(j))

let xor_bytes a b =
  Bytes.init (Bytes.length a) (fun i ->
      Char.chr (Char.code (Bytes.get a i) lxor Char.code (Bytes.get b i)))

(* Simulation: hand the receiver its chosen messages and meter what IKNP
   moves for them: kappa bits of the u matrix per OT one way, [masked]
   bytes of masked messages back. *)
let ideal session meter ~pairs ~choices ~masked =
  let m = Array.length pairs in
  Xfer.add_b_to_a meter (kappa * ((m + 7) / 8));
  Xfer.add_a_to_b meter masked;
  session.index <- session.index + m;
  Array.mapi (fun j (x0, x1) -> if choices.(j) then x1 else x0) pairs

let extend session meter ~pairs ~choices =
  let m = Array.length pairs in
  if Array.length choices <> m then invalid_arg "Ot_ext.extend: length mismatch";
  if m = 0 then [||]
  else begin
    let len = Bytes.length (fst pairs.(0)) in
    Array.iter
      (fun (a, b) ->
        if Bytes.length a <> len || Bytes.length b <> len then
          invalid_arg "Ot_ext.extend: message length mismatch")
      pairs;
    match session.iknp with
    | None -> ideal session meter ~pairs ~choices ~masked:(2 * m * len)
    | Some k ->
        let t_cols, q_cols = run_matrix k meter choices in
        let base = session.index in
        session.index <- session.index + m;
        (* Sender masks both messages of each OT with row hashes. *)
        let masked =
          Array.init m (fun j ->
              let q = row_of q_cols j in
              let q_xor_s = Array.mapi (fun i b -> b <> k.s.(i)) q in
              let x0, x1 = pairs.(j) in
              ( xor_bytes x0 (sha_row_hash (base + j) q len),
                xor_bytes x1 (sha_row_hash (base + j) q_xor_s len) ))
        in
        Xfer.add_a_to_b meter (2 * m * len);
        (* Receiver unmasks the chosen message with its t-row. *)
        Array.init m (fun j ->
            let y0, y1 = masked.(j) in
            let y = if choices.(j) then y1 else y0 in
            xor_bytes y (sha_row_hash (base + j) (row_of t_cols j) len))
  end

let extend_bits session meter ~pairs ~choices =
  let m = Array.length pairs in
  if Array.length choices <> m then invalid_arg "Ot_ext.extend_bits: length mismatch";
  if m = 0 then [||]
  else
    match session.iknp with
    | None -> ideal session meter ~pairs ~choices ~masked:(2 * ((m + 7) / 8))
    | Some k ->
        let t_cols, q_cols = run_matrix k meter choices in
        let base = session.index in
        session.index <- session.index + m;
        (* Two packed bit vectors from sender to receiver. *)
        Xfer.add_a_to_b meter (2 * ((m + 7) / 8));
        let hash_bit j row = Char.code (Bytes.get (sha_row_hash j row 1) 0) land 1 = 1 in
        Array.init m (fun j ->
            let q = row_of q_cols j in
            let q_xor_s = Array.mapi (fun i b -> b <> k.s.(i)) q in
            let x0, x1 = pairs.(j) in
            let y0 = x0 <> hash_bit (base + j) q in
            let y1 = x1 <> hash_bit (base + j) q_xor_s in
            (if choices.(j) then y1 else y0) <> hash_bit (base + j) (row_of t_cols j))

(* Word-level extension for bitsliced GMW: entry [g] of [pairs]/[choices]
   carries the same logical OT for [width] independent instances, one per
   bit lane, so one call performs [width * Array.length pairs] bit OTs.
   Lanes are unpacked, run through {!extend_bits} as one batch (which also
   meters them as one batch) and repacked. *)
let extend_words session meter ~width ~pairs ~choices =
  let m = Array.length pairs in
  if Array.length choices <> m then invalid_arg "Ot_ext.extend_words: length mismatch";
  if width < 1 || width > 64 then
    invalid_arg "Ot_ext.extend_words: width must be in [1, 64]";
  if m = 0 then [||]
  else begin
    let total = m * width in
    let bit w l = Int64.logand (Int64.shift_right_logical w l) 1L = 1L in
    let bpairs =
      Array.init total (fun i ->
          let x0, x1 = pairs.(i / width) in
          let l = i mod width in
          (bit x0 l, bit x1 l))
    in
    let bchoices = Array.init total (fun i -> bit choices.(i / width) (i mod width)) in
    let outs = extend_bits session meter ~pairs:bpairs ~choices:bchoices in
    Array.init m (fun g ->
        let w = ref 0L in
        for l = width - 1 downto 0 do
          w := Int64.logor (Int64.shift_left !w 1) (if outs.((g * width) + l) then 1L else 0L)
        done;
        !w)
  end

let ots_performed session = session.index
