(** Arbitrary-precision natural numbers.

    This is the arithmetic substrate for the ElGamal layer: the container is
    sealed (no [opam install]), so we implement multi-precision arithmetic
    from scratch rather than depending on zarith. Numbers are immutable.

    The representation is a little-endian array of 30-bit limbs — the
    widest width for which the fused Montgomery multiply-and-reduce step
    (two limb products plus carries per inner iteration) stays exact in
    OCaml's 63-bit native [int]. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** Raises [Invalid_argument] on negative input. *)

val to_int : t -> int
(** Raises [Failure] if the value exceeds [max_int]. *)

val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool

val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** Cheap non-cryptographic hash over the limbs, consistent with {!equal}
    (the representation is canonical). Lets hash tables key directly on
    numbers instead of on allocated hex strings. *)

val num_bits : t -> int
(** Position of the highest set bit plus one; [num_bits zero = 0]. *)

val bit : t -> int -> bool
(** [bit t i] is bit [i] (little-endian); [false] beyond [num_bits]. *)

val add : t -> t -> t

val sub : t -> t -> t
(** Raises [Invalid_argument] if the result would be negative. *)

val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b = (q, r)] with [a = q*b + r], [0 <= r < b].
    Raises [Division_by_zero] if [b] is zero. *)

val rem : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val pow : t -> int -> t
(** Plain (non-modular) exponentiation; exponent must be non-negative. *)


val mod_sub : t -> t -> m:t -> t
val mod_mul : t -> t -> m:t -> t

val mod_pow : base:t -> exp:t -> m:t -> t
(** Modular exponentiation. Uses Montgomery reduction with a 4-bit window
    when [m] is odd, plain square-and-multiply otherwise.
    Raises [Division_by_zero] if [m] is zero. *)

val mod_inv : t -> m:t -> t
(** Multiplicative inverse modulo [m]. Raises [Not_found] when the inverse
    does not exist ([t] and [m] are not coprime). *)

val of_bytes_be : bytes -> t
val to_bytes_be : t -> bytes
(** Minimal-length big-endian encoding; [to_bytes_be zero] is empty. *)

val to_bytes_be_padded : t -> len:int -> bytes
(** Fixed-width big-endian encoding, left-padded with zero bytes to exactly
    [len] bytes. Raises [Invalid_argument] if the value needs more than
    [len] bytes. *)

val of_hex : string -> t
(** Accepts an even- or odd-length hex string. *)


val of_decimal : string -> t
(** Raises [Invalid_argument] on empty strings or non-digit characters. *)

val to_decimal : t -> string

val random_below : Dstress_util.Prng.t -> t -> t
(** [random_below prng bound] is uniform in [\[0, bound)]; [bound] must be
    positive. *)

val random_bits : Dstress_util.Prng.t -> int -> t
(** Uniform value with at most [n] bits. *)

val is_probable_prime : ?rounds:int -> Dstress_util.Prng.t -> t -> bool
(** Miller–Rabin with [rounds] random bases (default 32). *)

val generate_prime : Dstress_util.Prng.t -> bits:int -> t
(** Random probable prime with exactly [bits] bits ([bits >= 2]). *)

(** Montgomery-form contexts, exposed for hot loops in the crypto layer that
    perform many operations modulo the same odd modulus.

    Internally this is a mutable word-array kernel: fixed-width limb
    buffers sized per modulus, in-place fused CIOS multiplication (squaring
    included), with per-context scratch space reused across calls so the
    inner loops never allocate. The API below stays immutable — every
    entry point takes and returns normalized [t] values, and allocates
    only its result. *)
module Mont : sig
  type ctx

  val create : t -> ctx
  (** Raises [Invalid_argument] if the modulus is even or < 3. *)

  val modulus : ctx -> t
  val to_mont : ctx -> t -> t
  val from_mont : ctx -> t -> t

  val mul : ctx -> t -> t -> t
  (** Multiplication of two Montgomery-form values. *)

  val pow : ctx -> t -> t -> t
  (** [pow ctx base_mont exp] with Montgomery-form base and plain exponent;
      result in Montgomery form (as for every other entry point below).
      4-bit fixed window: 15 table multiplications, then 4 squarings and
      at most one multiplication per window. *)

  type comb
  (** Lim–Lee fixed-base comb table ("More Flexible Exponentiation with
      Precomputation", CRYPTO 1994) of one Montgomery-form base, for
      exponents of at most [ebits] bits. With [h] teeth the exponent is
      read as [h] slices of [d = ceil(ebits / h)] bits, and the table holds
      the [2^h] products of the powers [base^(2^(i*d))]. It lives in one
      unboxed [Bytes] of [2^h * k * 4] bytes ([k] 30-bit limbs per entry,
      4 bytes each), which the GC never scans. *)

  val comb : ctx -> t -> teeth:int -> ebits:int -> comb
  (** [comb ctx base_mont ~teeth ~ebits] builds the table: [(teeth-1) * d]
      squarings plus [2^teeth - teeth - 1] multiplications. Raises
      [Invalid_argument] unless [1 <= teeth <= 16] and [ebits >= 1]. *)

  val pow_comb : ctx -> comb -> t -> t
  (** [pow_comb ctx c e] is [base^e] in Montgomery form: at most [d - 1]
      squarings and [d - 1] table multiplications, and fewer for an
      exponent that fits in the first tooth ([num_bits e <= d]: one
      squaring per bit below the top one and one multiplication per set
      bit below it). Raises [Invalid_argument] if [e] has more than the
      table's [ebits] bits or if [c] was built on another context. *)

  val muls : unit -> int
  (** Montgomery multiplications (squarings included) performed so far by
      this module's entry points on the calling domain. The count is exact
      for the calling domain's own work; a difference of two reads
      measures the code in between. *)
end
