(** Signed arbitrary-precision integers: a sign-and-magnitude wrapper over
    {!Nat}. Used where intermediate quantities may go negative (extended-gcd
    style computations, signed plaintexts in the exponential-ElGamal lookup
    table, and accounting deltas in the cost model). *)

type t

val zero : t
val one : t
val minus_one : t

val of_int : int -> t
val to_int : t -> int
(** Raises [Failure] if out of native range. *)

val neg : t -> t
val abs : t -> t
val sign : t -> int
(** -1, 0 or 1. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** Euclidean division: the remainder is always non-negative and smaller
    than [|b|]. Raises [Division_by_zero]. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
