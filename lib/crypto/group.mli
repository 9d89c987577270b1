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

val pow_g : t -> exponent -> elt
(** [pow_g t e] is [g^e] through the group's precomputed fixed-base window
    table: one table multiplication per window digit, no squarings. *)

val pow_g_int : t -> int -> elt
(** [pow_g_int t v] is [g^v] for a signed machine integer (negative [v]
    encodes as [q - |v|]), memoized — exponential ElGamal re-encrypts the
    same small plaintexts constantly, and the negative encodings are
    full-width exponents. *)

val pow_base_many : t -> elt -> exponent array -> elt array
(** One shared base, many exponents — the shape of per-key bundle
    encryption ([Exp_elgamal.encrypt_multi_batch]) and batched lookup-table
    decryption under a shared adjusted ephemeral
    ([Exp_elgamal.decrypt_shared]). Large batches build (and cache, per
    key) a window table; small ones share a single squaring chain across
    the batch. *)

val rerandomize_many : t -> elt array -> exponent -> elt array
(** Many bases, one shared exponent: [pow] on each base. This is the one
    entry point for the shape of certificate blinding ([pk_i^r] in
    [Setup.run]) and ciphertext adjustment (in [Protocol.transfer]). It
    shares no work across bases. *)

val inv_many : t -> elt array -> elt array
(** Montgomery's batch-inversion trick: one modular inverse plus [3(n-1)]
    multiplications for the whole batch. *)

val random_exponent : Prg.t -> t -> exponent
(** Uniform in [\[1, q)] (never zero, so re-randomizers are invertible). *)

val exp_add : t -> exponent -> exponent -> exponent
val exp_sub : t -> exponent -> exponent -> exponent
val exp_mul : t -> exponent -> exponent -> exponent
val exp_inv : t -> exponent -> exponent
(** Arithmetic in Z_q. [exp_inv] raises [Not_found] on zero. *)

val is_element : t -> elt -> bool
(** Membership test for the order-q subgroup. *)

val elt_equal : elt -> elt -> bool
