module Nat = Dstress_bignum.Nat

let xor_bytes a b =
  if Bytes.length a <> Bytes.length b then invalid_arg "Ot.xor_bytes";
  Bytes.init (Bytes.length a) (fun i ->
      Char.chr (Char.code (Bytes.get a i) lxor Char.code (Bytes.get b i)))

let random_point grp tag =
  (* Hash the tag into Z_p and square to land in the order-q subgroup of a
     safe-prime group. Retry (by extending the tag) until nonzero. *)
  let p = Group.p grp in
  let rec go tag =
    let raw = ref (Bytes.of_string "") in
    while 8 * Bytes.length !raw < Nat.num_bits p + 64 do
      let i = Bytes.length !raw / 32 in
      raw := Bytes.cat !raw (Sha256.digest (Bytes.of_string (tag ^ ":" ^ string_of_int i)))
    done;
    let candidate = Nat.rem (Nat.of_bytes_be !raw) p in
    if Nat.is_zero candidate || Nat.is_one candidate then go (tag ^ "#")
    else Group.mul grp candidate candidate
  in
  go tag

(* Key-derivation for the hashed-ElGamal KEM: expand H(kem || index) to the
   message length. *)
let kem_pad kem idx len =
  let seed = Sha256.digest (Bytes.cat (Nat.to_bytes_be kem) (Bytes.make 1 (Char.chr idx))) in
  Prg.bytes (Prg.create seed) len

let base_ot grp meter ~point:c ~sender_prg ~receiver_prg ~m0 ~m1 ~choice =
  let len = Bytes.length m0 in
  if Bytes.length m1 <> len then invalid_arg "Ot.base_ot: message length mismatch";
  let ebytes = Group.element_bytes grp in
  (* Receiver: one real key pair; the other public key is forced to
     C / pk, whose secret key the receiver cannot know. *)
  let x = Group.random_exponent receiver_prg grp in
  let pk_real = Group.pow_g grp x in
  let pk0 = if choice then Group.mul grp c (Group.inv grp pk_real) else pk_real in
  Xfer.add_b_to_a meter ebytes;
  (* Sender: reconstruct pk1 and encrypt each message to its key. *)
  let pk1 = Group.mul grp c (Group.inv grp pk0) in
  let encrypt_to pk m idx =
    let r = Group.random_exponent sender_prg grp in
    let eph = Group.pow_g grp r in
    let kem = Group.pow grp pk r in
    (eph, xor_bytes m (kem_pad kem idx len))
  in
  let e0 = encrypt_to pk0 m0 0 and e1 = encrypt_to pk1 m1 1 in
  Xfer.add_a_to_b meter (2 * (ebytes + len));
  (* Receiver: decrypt the chosen ciphertext with the real secret key. *)
  let eph, body = if choice then e1 else e0 in
  let kem = Group.pow grp eph x in
  xor_bytes body (kem_pad kem (if choice then 1 else 0) len)
