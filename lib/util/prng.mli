(** Deterministic pseudo-random number generator.

    All randomness in the library flows through this module so that every
    protocol run, test, and benchmark is reproducible from a single seed.
    The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny
    state and good statistical quality.

    This is NOT a cryptographically secure generator; the crypto layer
    ([Dstress_crypto.Prg]) builds a hash-based PRG on top for key material
    inside simulated parties. For a simulation testbed this distinction is
    about hygiene, not security of deployed systems. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator from a 64-bit seed. *)

val of_int : int -> t
(** [of_int seed] is [create (Int64.of_int seed)]. *)


val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int -> int
(** [bits t n] returns a uniform integer in [\[0, 2^n)] for [0 <= n <= 62]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)

val bool : t -> bool
(** Uniform boolean. *)

val float : t -> float
(** Uniform float in [\[0, 1)], with 53 bits of precision. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. Raises [Invalid_argument] on an
    empty array. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct integers from
    [\[0, n)], in uniformly random order. Raises [Invalid_argument] if
    [k > n] or [k < 0]. *)
