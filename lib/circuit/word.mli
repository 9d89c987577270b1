(** Multi-bit arithmetic gadgets over the circuit builder.

    A word is a little-endian array of wires (bit 0 first), interpreted as
    an unsigned integer unless a function says otherwise. All gadgets are
    built from the AND/XOR/NOT basis with ripple-carry structure — the
    right trade-off for GMW, where XOR and NOT are free and each AND gate
    costs OTs and traffic, and the paper's circuits are small
    (L = 12..32 bits). Every carry and borrow is one {!Builder.maj}, so a
    full-adder bit costs one AND.

    The AND cost given with each gadget is for [n]-bit operands with no
    constant bits; the builder's constant folding only lowers it, and
    outputs the caller drops are removed by {!Builder.finish}. *)

type t = Builder.wire array

val width : t -> int

val constant : Builder.t -> bits:int -> int -> t
(** Two's-complement encoding of a (possibly negative) constant. *)

val inputs : Builder.t -> bits:int -> t
(** Allocates [bits] fresh input wires. *)

val zero_extend : Builder.t -> t -> bits:int -> t
val truncate : t -> bits:int -> t
(** [truncate] keeps the low [bits] bits. Raises [Invalid_argument] if the
    word is shorter. *)

val shift_left_const : Builder.t -> t -> int -> t
(** Logical shift by a constant, width preserved. *)

val shift_right_const : Builder.t -> t -> int -> t

val add : Builder.t -> t -> t -> t
(** Modular addition (wraps); widths must match. [n - 1] ANDs. *)

val add_with_carry : Builder.t -> t -> t -> t * Builder.wire
(** Sum and carry-out. [n] ANDs. *)

val sub : Builder.t -> t -> t -> t
(** Modular subtraction (wraps). [n - 1] ANDs. *)

val sub_with_borrow : Builder.t -> t -> t -> t * Builder.wire
(** The borrow wire is 1 iff [a < b] (unsigned). [n] ANDs. *)

val saturating_sub : Builder.t -> t -> t -> t
(** [max (a - b) 0] — the "shortfall" primitive of the risk circuits.
    [2n] ANDs. *)

val eq : Builder.t -> t -> t -> Builder.wire
(** [n - 1] ANDs. *)

val is_zero : Builder.t -> t -> Builder.wire
(** [n - 1] ANDs. *)

val lt : Builder.t -> t -> t -> Builder.wire
(** Unsigned comparison: the borrow of [a - b], built without the
    difference bits. [n] ANDs. *)

val mux : Builder.t -> Builder.wire -> t -> t -> t
(** [mux b sel a c] selects [a] when [sel] is 1. [n] ANDs. *)

val min : Builder.t -> t -> t -> t
(** [lt] then [mux]: [2n] ANDs. *)

val mul : Builder.t -> t -> t -> t
(** Full product: width is the sum of the operand widths. [n(2n - 1)]
    ANDs for two [n]-bit operands. *)

val mul_truncated : Builder.t -> t -> t -> bits:int -> t
(** Product truncated to [bits] bits (cheaper than [mul] + [truncate]
    because high partial products are never built). [n² - n + 1] ANDs
    for [n]-bit operands and [bits = n]. *)

val divmod : Builder.t -> t -> t -> t * t
(** Unsigned non-restoring division: [(quotient, remainder)], quotient has
    the dividend's width and remainder the divisor's. Division by zero
    yields an all-ones quotient and the dividend's low bits as remainder
    (callers in the risk circuits guard against zero divisors). For an
    [n]-bit dividend and [m]-bit divisor: [n·m] ANDs for the [n] add or
    subtract steps, [n + m - 1] for the zero-divisor quotient, and
    [2m - 1] for the final remainder correction, which is removed when
    the caller drops the remainder. *)

val logand : Builder.t -> t -> t -> t
val logxor : Builder.t -> t -> t -> t
val lognot : Builder.t -> t -> t

val sum : Builder.t -> bits:int -> t list -> t
(** Sum of a non-empty list, all operands zero-extended to [bits] bits,
    wrapping modulo 2^bits: one [add] per operand after the first. *)
