(** Fixed-length bit vectors.

    Used throughout the MPC layer: wire values, XOR shares, and the
    bit-decomposition step of the share-transfer protocol all manipulate
    short vectors of bits. Index 0 is the least-significant bit when a
    vector is interpreted as an integer. *)

type t
(** An immutable vector of bits of fixed length. *)

val length : t -> int

val create : int -> bool -> t
(** [create n v] is the length-[n] vector with every bit equal to [v]. *)

val init : int -> (int -> bool) -> t

val get : t -> int -> bool
(** Raises [Invalid_argument] when out of range. *)

val unsafe_get : t -> int -> bool
(** [get] without the bounds check, for hot loops (the GMW evaluator reads
    every input share once per gate) that have already validated lengths.
    Out-of-range indices are undefined behaviour. *)

val set : t -> int -> bool -> t
(** Functional update. *)

val of_int : bits:int -> int -> t
(** [of_int ~bits v] is the two's-complement encoding of [v] on [bits]
    bits (so negative [v] is accepted). *)

val to_int : t -> int
(** Unsigned interpretation. Raises [Invalid_argument] if the length
    exceeds 62 bits. *)

val to_int_signed : t -> int
(** Two's-complement interpretation. *)

val xor : t -> t -> t
(** Pointwise exclusive-or. Raises [Invalid_argument] on length mismatch. *)

val logand : t -> t -> t


val random : Prng.t -> int -> t
(** [random prng n] is a uniform length-[n] vector. *)

val xor_all : t list -> t
(** XOR of a non-empty list of equal-length vectors — reconstruction of an
    XOR-shared secret. Raises [Invalid_argument] on an empty list. *)

val concat : t list -> t
(** Concatenation; index 0 of the first vector stays index 0. *)

val sub : t -> pos:int -> len:int -> t
(** Slice of [len] bits starting at [pos].
    Raises [Invalid_argument] when out of range. *)

val to_bool_array : t -> bool array
val of_bool_array : bool array -> t

val equal : t -> t -> bool
