(** Schnorr signatures over a {!Group} (Fiat–Shamir transform, SHA-256 as
    the random oracle).

    The trusted party of §3.4 signs the block list and the block
    certificates so nodes can verify they received untampered key
    material. The paper treats signatures as a black box ("σTP(...)"); a
    Schnorr scheme over the group we already have is the natural
    instantiation. *)

type signature = { challenge : Dstress_bignum.Nat.t; response : Dstress_bignum.Nat.t }

val keygen : Prg.t -> Group.t -> Elgamal.secret_key * Elgamal.public_key

val sign : Prg.t -> Group.t -> Elgamal.secret_key * Elgamal.public_key -> string -> signature
(** [sign prg grp (sk, pk) msg] with the key pair {!keygen} returned:
    [pk] goes into the challenge as it is, so a signature costs one
    fixed-base exponentiation (the commitment). *)

val verify : Group.t -> Elgamal.public_key -> string -> signature -> bool

val signature_bytes : Group.t -> int
(** Size on the wire (two exponents). *)
