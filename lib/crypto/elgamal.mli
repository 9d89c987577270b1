(** Classic ElGamal over a {!Group}: multiplicatively homomorphic
    encryption of group elements. The exponential variant used by the
    DStress transfer protocol lives in {!Exp_elgamal}; this module is the
    common base and is also used (in hashed-KEM form) by the oblivious
    transfer in {!Ot}. *)

type public_key = Group.elt
type secret_key = Group.exponent

type ciphertext = { c1 : Group.elt; c2 : Group.elt }

val keygen : Prg.t -> Group.t -> secret_key * public_key
(** [keygen prg grp] draws [x] uniform in [\[1, q)] and returns
    [(x, g^x)]. *)

val encrypt : Prg.t -> Group.t -> public_key -> Group.elt -> ciphertext
(** [encrypt prg grp h m] with a fresh ephemeral key [y]:
    [(g^y, m * h^y)]. The message must be a group element. *)

val decrypt : Group.t -> secret_key -> ciphertext -> Group.elt

val mul : Group.t -> ciphertext -> ciphertext -> ciphertext
(** Multiplicative homomorphism: decrypts to the product of plaintexts. *)

val rerandomize : Prg.t -> Group.t -> public_key -> ciphertext -> ciphertext
(** Multiplies in a fresh encryption of the identity: same plaintext,
    unlinkable ciphertext. *)
