module Bitvec = Dstress_util.Bitvec
module Prng = Dstress_util.Prng

let kappa = 128
let seed_bytes = 16

type mode = Crypto | Simulation

(* A column generator: SHA-CTR in crypto mode, SplitMix in simulation
   mode. Both are deterministic expansions of a 16-byte seed. *)
type colgen = Sha_col of Prg.t | Fast_col of Prng.t

let colgen_of_seed mode seed =
  match mode with
  | Crypto -> Sha_col (Prg.create seed)
  | Simulation ->
      (* Condense the seed into 64 bits for SplitMix. *)
      let acc = ref 0L in
      Bytes.iteri
        (fun i c ->
          acc := Int64.logxor !acc (Int64.shift_left (Int64.of_int (Char.code c)) (8 * (i mod 8))))
        seed;
      Fast_col (Prng.create !acc)

let pack_bools_to_words bits =
  let w = Array.make ((Array.length bits + 63) / 64) 0L in
  Array.iteri
    (fun i b ->
      if b then w.(i / 64) <- Int64.logor w.(i / 64) (Int64.shift_left 1L (i mod 64)))
    bits;
  w

(* Simulation columns are filled in 64-bit chunks ({!Prng.bool_words})
   instead of one [Prng.bool] per bit; the draw order (and the generator
   state left behind) is pinned to the historical bit-at-a-time loop by
   Prng.bool_words' contract, so existing transcripts are unchanged. *)
let colgen_bits g m =
  match g with
  | Sha_col prg -> Prg.bits prg m
  | Fast_col prng -> Bitvec.of_int64_words ~len:m (Prng.bool_words prng m)

type session = {
  mode : mode;
  s : bool array; (* sender's secret correlation string, kappa bits *)
  s_words : int64 array; (* s packed 64 bits per word, for fast hashing *)
  sender_cols : colgen array; (* sender's view: PRG(k_i^{s_i}) *)
  recv_cols0 : colgen array; (* receiver's view: PRG(k_i^0) *)
  recv_cols1 : colgen array; (* PRG(k_i^1) *)
  mutable index : int; (* monotone OT counter, tweaks the row hash *)
}

let setup ?(mode = Crypto) grp meter ~sender_prg ~receiver_prg =
  let s = Array.init kappa (fun _ -> Prg.bool sender_prg) in
  let recv_cols0 = Array.make kappa (colgen_of_seed mode (Bytes.create seed_bytes)) in
  let recv_cols1 = Array.make kappa (colgen_of_seed mode (Bytes.create seed_bytes)) in
  let sender_cols = Array.make kappa (colgen_of_seed mode (Bytes.create seed_bytes)) in
  for i = 0 to kappa - 1 do
    (* Roles reverse in the base phase: the extension receiver owns both
       seeds; the extension sender obliviously learns the one selected by
       its secret bit s_i. *)
    let k0 = Prg.bytes receiver_prg seed_bytes in
    let k1 = Prg.bytes receiver_prg seed_bytes in
    let chosen =
      match mode with
      | Crypto ->
          (* The meter convention stays (a = extension sender), so meter
             through a flipped sub-meter. *)
          let sub = Xfer.create () in
          let out =
            Ot.base_ot grp sub ~sender_prg:receiver_prg ~receiver_prg:sender_prg
              ~m0:k0 ~m1:k1 ~choice:s.(i)
          in
          Xfer.add_b_to_a meter (Xfer.a_to_b sub);
          Xfer.add_a_to_b meter (Xfer.b_to_a sub);
          out
      | Simulation ->
          (* Ideal base-OT functionality; meter the bytes the real base OT
             would have moved (receiver key + two ciphertexts). *)
          let ebytes = Group.element_bytes grp in
          Xfer.add_a_to_b meter ebytes;
          Xfer.add_b_to_a meter (2 * (ebytes + seed_bytes));
          if s.(i) then k1 else k0
    in
    recv_cols0.(i) <- colgen_of_seed mode k0;
    recv_cols1.(i) <- colgen_of_seed mode k1;
    sender_cols.(i) <- colgen_of_seed mode chosen
  done;
  { mode; s; s_words = pack_bools_to_words s; sender_cols; recv_cols0; recv_cols1; index = 0 }

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

(* SplitMix-style mixing of (j, row) for simulation mode. *)
let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let fast_seed_of_words j w =
  let acc = ref (mix (Int64.of_int j)) in
  Array.iter (fun wi -> acc := mix (Int64.logxor !acc wi)) w;
  !acc

let fast_row_seed j row = fast_seed_of_words j (pack_bools_to_words row)

let fast_row_hash j row len =
  let state = Prng.create (fast_row_seed j row) in
  Prng.bytes state len

(* 64x64 in-place bit transpose (Hacker's Delight 7-3): afterwards
   a.(c) bit r equals the original a.(r) bit c, LSB-first. *)
let transpose64 a =
  let j = ref 32 and m = ref 0x00000000FFFFFFFFL in
  while !j <> 0 do
    let k = ref 0 in
    while !k < 64 do
      let t =
        Int64.logand (Int64.logxor (Int64.shift_right_logical a.(!k) !j) a.(!k + !j)) !m
      in
      a.(!k + !j) <- Int64.logxor a.(!k + !j) t;
      a.(!k) <- Int64.logxor a.(!k) (Int64.shift_left t !j);
      k := (!k + !j + 1) land lnot !j
    done;
    j := !j lsr 1;
    m := Int64.logxor !m (Int64.shift_left !m !j)
  done

let row_hash mode j row len =
  match mode with Crypto -> sha_row_hash j row len | Simulation -> fast_row_hash j row len

(* ------------------------------------------------------------------ *)
(* Extension                                                           *)
(* ------------------------------------------------------------------ *)

(* Shared core: expand the column PRGs for a batch of m OTs and derive
   the sender's q-columns (q_i = t_i xor s_i * r), metering the u-matrix
   transfer. Columns are plain bool arrays: [.(i).(j)] is bit j of
   column i. *)
let run_matrix session meter choices =
  let m = Array.length choices in
  let expand g = Bitvec.to_bool_array (colgen_bits g m) in
  let t_cols = Array.map expand session.recv_cols0 in
  let w_cols = Array.map expand session.recv_cols1 in
  (* u_i = t_i xor w_i xor r is sent to the sender: kappa * m bits. *)
  Xfer.add_b_to_a meter (kappa * ((m + 7) / 8));
  let q_cols =
    Array.init kappa (fun i ->
        let own = expand session.sender_cols.(i) in
        if not session.s.(i) then own
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
    let t_cols, q_cols = run_matrix session meter choices in
    let base = session.index in
    session.index <- session.index + m;
    let hash = row_hash session.mode in
    (* Sender masks both messages of each OT with row hashes. *)
    let masked =
      Array.init m (fun j ->
          let q = row_of q_cols j in
          let q_xor_s = Array.mapi (fun i b -> b <> session.s.(i)) q in
          let x0, x1 = pairs.(j) in
          (xor_bytes x0 (hash (base + j) q len), xor_bytes x1 (hash (base + j) q_xor_s len)))
    in
    Xfer.add_a_to_b meter (2 * m * len);
    (* Receiver unmasks the chosen message with its t-row. *)
    Array.init m (fun j ->
        let y0, y1 = masked.(j) in
        let y = if choices.(j) then y1 else y0 in
        xor_bytes y (hash (base + j) (row_of t_cols j) len))
  end

(* Word-level column expansion for the simulation fast path. *)
let fast_words g nwords =
  match g with
  | Fast_col prng -> Array.init nwords (fun _ -> Prng.next_int64 prng)
  | Sha_col _ -> assert false (* Simulation sessions only hold Fast_col *)

(* Transpose a kappa x (64*mwords) packed bit matrix into per-row words:
   result.(h).(j) holds bits of columns 64h..64h+63 at row j. *)
let transpose_columns cols ~mwords ~m =
  let halves = kappa / 64 in
  let rows = Array.init halves (fun _ -> Array.make m 0L) in
  let buf = Array.make 64 0L in
  for h = 0 to halves - 1 do
    for b = 0 to mwords - 1 do
      for r = 0 to 63 do
        buf.(r) <- cols.((64 * h) + r).(b)
      done;
      transpose64 buf;
      let limit = min 63 (m - (64 * b) - 1) in
      for c = 0 to limit do
        rows.(h).((64 * b) + c) <- buf.(c)
      done
    done
  done;
  rows

(* seed of (j, row words) — equivalent to fast_seed_of_words on the
   kappa/64 = 2 row words, without allocating. *)
let seed2 j w0 w1 = mix (Int64.logxor (mix (Int64.logxor (mix (Int64.of_int j)) w0)) w1)

let extend_bits_fast session meter ~pairs ~choices =
  let m = Array.length pairs in
  let mwords = (m + 63) / 64 in
  let cw = Array.make mwords 0L in
  Array.iteri
    (fun j c ->
      if c then cw.(j lsr 6) <- Int64.logor cw.(j lsr 6) (Int64.shift_left 1L (j land 63)))
    choices;
  let t_cols = Array.map (fun g -> fast_words g mwords) session.recv_cols0 in
  let w_cols = Array.map (fun g -> fast_words g mwords) session.recv_cols1 in
  Xfer.add_b_to_a meter (kappa * ((m + 7) / 8));
  let q_cols =
    Array.init kappa (fun i ->
        let own = fast_words session.sender_cols.(i) mwords in
        if not session.s.(i) then own
        else
          Array.init mwords (fun w ->
              Int64.logxor own.(w)
                (Int64.logxor t_cols.(i).(w) (Int64.logxor w_cols.(i).(w) cw.(w)))))
  in
  let q_rows = transpose_columns q_cols ~mwords ~m in
  let t_rows = transpose_columns t_cols ~mwords ~m in
  let base = session.index in
  session.index <- session.index + m;
  Xfer.add_a_to_b meter (2 * ((m + 7) / 8));
  let s0 = session.s_words.(0) and s1 = session.s_words.(1) in
  let bit_of seed = Int64.logand seed 1L = 1L in
  Array.init m (fun j ->
      let q0 = q_rows.(0).(j) and q1 = q_rows.(1).(j) in
      let x0, x1 = pairs.(j) in
      let y0 = x0 <> bit_of (seed2 (base + j) q0 q1) in
      let y1 = x1 <> bit_of (seed2 (base + j) (Int64.logxor q0 s0) (Int64.logxor q1 s1)) in
      (if choices.(j) then y1 else y0)
      <> bit_of (seed2 (base + j) t_rows.(0).(j) t_rows.(1).(j)))

let extend_bits session meter ~pairs ~choices =
  let m = Array.length pairs in
  if Array.length choices <> m then invalid_arg "Ot_ext.extend_bits: length mismatch";
  if m = 0 then [||]
  else
    match session.mode with
    | Simulation -> extend_bits_fast session meter ~pairs ~choices
    | Crypto ->
        let t_cols, q_cols = run_matrix session meter choices in
        let base = session.index in
        session.index <- session.index + m;
        (* Two packed bit vectors from sender to receiver. *)
        Xfer.add_a_to_b meter (2 * ((m + 7) / 8));
        let hash_bit j row = Char.code (Bytes.get (sha_row_hash j row 1) 0) land 1 = 1 in
        Array.init m (fun j ->
            let q = row_of q_cols j in
            let q_xor_s = Array.mapi (fun i b -> b <> session.s.(i)) q in
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

let copy_colgen = function
  | Sha_col prg -> Sha_col (Prg.copy prg)
  | Fast_col prng -> Fast_col (Prng.copy prng)

(* Deep snapshot: the column PRGs and the OT counter are the only mutable
   state, so copying them makes the two sessions fully independent while
   sharing the immutable correlation string. *)
let copy_session s =
  {
    mode = s.mode;
    s = s.s;
    s_words = s.s_words;
    sender_cols = Array.map copy_colgen s.sender_cols;
    recv_cols0 = Array.map copy_colgen s.recv_cols0;
    recv_cols1 = Array.map copy_colgen s.recv_cols1;
    index = s.index;
  }
