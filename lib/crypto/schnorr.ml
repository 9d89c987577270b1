module Nat = Dstress_bignum.Nat

type signature = { challenge : Nat.t; response : Nat.t }

let keygen = Elgamal.keygen

(* Hash (commitment, public key, message) into Z_q, the two elements fixed-width. *)
let challenge_of grp commitment pk msg =
  let len = Group.element_bytes grp in
  let payload =
    Bytes.concat Bytes.empty
      [
        Nat.to_bytes_be_padded commitment ~len;
        Nat.to_bytes_be_padded pk ~len;
        Bytes.unsafe_of_string msg;
      ]
  in
  (* Two digest blocks, the payload hashed once: H(payload) || H(H(payload)). *)
  let d1 = Sha256.digest payload in
  Nat.rem (Nat.of_bytes_be (Bytes.cat d1 (Sha256.digest d1))) (Group.q grp)

let sign prg grp (sk, pk) msg =
  let k = Group.random_exponent prg grp in
  let commitment = Group.pow_g grp k in
  let c = challenge_of grp commitment pk msg in
  (* s = k - c*x mod q *)
  let s = Group.exp_sub grp k (Group.exp_mul grp c sk) in
  { challenge = c; response = s }

let verify grp pk msg { challenge; response } =
  (* r' = g^s * pk^c; accept iff H(r', pk, msg) = c. The g^s factor goes
     through the fixed-base table, so only pk^c pays for a squaring
     chain. *)
  if Nat.num_bits pk > 8 * Group.element_bytes grp then false
  else
    let r' = Group.mul grp (Group.pow_g grp response) (Group.pow grp pk challenge) in
    Nat.equal (challenge_of grp r' pk msg) challenge

let signature_bytes grp = 2 * ((Nat.num_bits (Group.q grp) + 7) / 8)
