(** Deterministic, splittable pseudo-random number generator.

    All randomness in the library flows through this module so that every
    protocol run, test, and benchmark is reproducible from a single seed.
    The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny
    state, good statistical quality, and an O(1) [split] that derives an
    independent stream — which is exactly what we need to hand each simulated
    protocol party its own generator.

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

val copy : t -> t
(** Independent snapshot of the generator: the copy and the original
    produce the same stream from this point on, without affecting each
    other. Used to checkpoint and restore draw positions (the GMW
    preprocessing pipeline snapshots per-party generators per eval). *)

val split : t -> t
(** [split t] advances [t] and returns a statistically independent
    generator. Streams obtained by [split] do not overlap in practice. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int -> int
(** [bits t n] returns a uniform integer in [\[0, 2^n)] for [0 <= n <= 62]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)

val int64_range : t -> int64 -> int64
(** [int64_range t bound] is uniform in [\[0, bound)] for positive [bound]. *)

val bool : t -> bool
(** Uniform boolean. *)

val float : t -> float
(** Uniform float in [\[0, 1)], with 53 bits of precision. *)

val bytes : t -> int -> bytes
(** [bytes t n] is [n] uniform bytes. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. Raises [Invalid_argument] on an
    empty array. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct integers from
    [\[0, n)], in uniformly random order. Raises [Invalid_argument] if
    [k > n] or [k < 0]. *)
