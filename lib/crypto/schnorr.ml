module Nat = Dstress_bignum.Nat

type signature = { challenge : Nat.t; response : Nat.t }

let keygen = Elgamal.keygen

(* Hash (commitment, public key, message) into Z_q. *)
let challenge_of grp commitment pk msg =
  let payload =
    Bytes.concat (Bytes.of_string "|")
      [
        Nat.to_bytes_be commitment;
        Nat.to_bytes_be pk;
        Bytes.of_string msg;
      ]
  in
  (* Two digest blocks give enough entropy for any of our group sizes. *)
  let d1 = Sha256.digest payload in
  let d2 = Sha256.digest (Bytes.cat d1 payload) in
  Nat.rem (Nat.of_bytes_be (Bytes.cat d1 d2)) (Group.q grp)

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
  let r' = Group.mul grp (Group.pow_g grp response) (Group.pow grp pk challenge) in
  Nat.equal (challenge_of grp r' pk msg) challenge

let signature_bytes grp = 2 * ((Nat.num_bits (Group.q grp) + 7) / 8)
