(** Schnorr groups: the prime-order subgroup of Z_p* used by the ElGamal
    layer.

    The paper's prototype uses the secp384r1 elliptic curve; this build
    substitutes a multiplicative Schnorr group (a safe prime [p = 2q + 1]
    and the order-[q] subgroup of squares). Every property the protocol
    needs — additive homomorphism of exponential ElGamal, public-key
    re-randomization, ephemeral-key reuse — is generic over the group, so
    the substitution changes constants but not behaviour.

    Five parameter sets are provided: [toy] (64-bit, for fast unit tests),
    [medium] (128-bit) and [standard] (256-bit) generated offline with a
    fixed seed, plus the RFC 7919 [ffdhe2048] and [ffdhe3072] groups —
    real paper-scale moduli with [g = 2] — for Crypto-backend runs at
    full key sizes. All are embedded as hex. *)

type t
(** Group parameters plus a Montgomery context for fast arithmetic mod p. *)

type elt = Dstress_bignum.Nat.t
(** Group elements are naturals in [\[1, p)]. *)

type exponent = Dstress_bignum.Nat.t
(** Exponents are naturals in [\[0, q)]. *)

val make : p:Dstress_bignum.Nat.t -> q:Dstress_bignum.Nat.t -> g:elt -> t
(** Build group parameters. Raises [Invalid_argument] if [p <> 2q + 1] or
    if [g] does not have order [q]. *)

val toy : t Lazy.t
val medium : t Lazy.t
val standard : t Lazy.t

val ffdhe2048 : t Lazy.t
val ffdhe3072 : t Lazy.t
(** RFC 7919 finite-field DH groups: safe primes with [g = 2] (a quadratic
    residue since [p = 7 mod 8], hence of order [q = (p-1)/2]). *)

val names : string list
(** Every name {!by_name} accepts, in registry order. CLI help and error
    messages are generated from this list so they cannot drift. *)

val by_name : string -> t
(** Looks a group up in {!names}. Raises [Invalid_argument] (listing the
    valid names) otherwise. *)

val p : t -> Dstress_bignum.Nat.t
val q : t -> Dstress_bignum.Nat.t
val g : t -> elt

val element_bytes : t -> int
(** Serialized size of one group element (the ciphertext-size unit used by
    the traffic model). *)

val mul : t -> elt -> elt -> elt
val inv : t -> elt -> elt
val pow : t -> elt -> exponent -> elt

type comb
(** A Lim–Lee fixed-base comb table of one element (see
    {!Dstress_bignum.Nat.Mont.comb}): with [h] teeth and
    [d = ceil(num_bits q / h)] it takes [(h-1)*d] squarings plus
    [2^h - h - 1] multiplications to build, at most [2d - 1]
    multiplications per exponentiation (counting the conversion out of
    Montgomery form), and [2^h * 4] bytes per 30-bit limb of [p], in one
    unboxed [Bytes]. A table lives exactly as long as its owner keeps
    it: the group owns the generator's, and every other base's table
    belongs to the caller that built it. *)

val comb : t -> teeth:int -> elt -> comb
(** [comb t ~teeth b] builds [b]'s table, covering every exponent of at
    most [num_bits q] bits. Raises [Invalid_argument] unless
    [1 <= teeth <= 16]. *)

val pow_comb : t -> comb -> exponent -> elt
(** [pow_comb t c e] is [b^e] for the [b] that [c] was built from; the
    same value {!pow} returns. Raises [Invalid_argument] if [e] has more
    bits than [q] or if [c] belongs to another group. *)

val pow_g : t -> exponent -> elt
(** [pow_g t e] is [g^e] through the generator's comb, built with the
    group: 9 teeth below 1024-bit [q] and 11 from there, so at most
    [2*ceil(num_bits q / teeth) - 1] multiplications (57 at [standard]'s
    255-bit [q]). Raises [Invalid_argument] if [e] has more bits than
    [q]. *)

val pow_g_int : t -> int -> elt
(** [pow_g_int t v] is [g^v] for a signed machine integer (negative [v]
    encodes as [q - |v|]). Exponential ElGamal encrypts small plaintexts
    constantly: [|v|] is the exponent, through the generator's comb for
    [v >= 0] and a one-tooth comb of [g^-1] otherwise, so a small value
    costs about two multiplications per bit of [|v|] rather than a
    full-width exponentiation. *)

val inv_many : t -> elt array -> elt array
(** Montgomery's batch-inversion trick: one modular inverse plus [3(n-1)]
    multiplications for the whole batch. *)

val random_exponent : Prg.t -> t -> exponent
(** Uniform in [\[1, q)] (never zero, so re-randomizers are invertible). *)

val exp_sub : t -> exponent -> exponent -> exponent
val exp_mul : t -> exponent -> exponent -> exponent
(** Arithmetic in Z_q. *)

val is_element : t -> elt -> bool
(** Membership test for the order-q subgroup. *)
