(** Circuit construction with on-the-fly simplification.

    The builder applies constant folding, algebraic identities
    ([x XOR x = 0], [x AND x = x], double negation) and structural
    hash-consing as gates are emitted. This matters beyond tidiness: the
    risk-model circuits embed many constant operands (degree bounds,
    thresholds, public scale factors), and folding them keeps the AND
    count — hence the MPC cost — close to what a hand-optimized circuit
    would achieve. *)

type t
type wire = Circuit.wire

val create : unit -> t

val input : t -> wire
(** Allocates the next input position. Inputs are numbered in allocation
    order. *)

val inputs : t -> int -> wire array

val const : t -> bool -> wire
val bnot : t -> wire -> wire
val bxor : t -> wire -> wire -> wire
val band : t -> wire -> wire -> wire

val bor : t -> wire -> wire -> wire
(** Derived: [a OR b = NOT (NOT a AND NOT b)] — one AND gate. *)

val mux : t -> wire -> wire -> wire -> wire
(** [mux t sel a b] is [if sel then a else b] — one AND gate. *)

val maj : t -> wire -> wire -> wire -> wire
(** [maj t a b c] is 1 iff at least two operands are — the carry of a full
    adder, one AND gate. With a constant operand it is the AND (constant
    0) or OR (constant 1) of the other two; otherwise it is
    [c XOR ((a XOR c) AND (b XOR c))], so an adder's sum bit
    [(a XOR c) XOR b] shares the XOR [a XOR c]. *)

val num_inputs : t -> int

val finish : t -> outputs:wire array -> Circuit.t
(** Seals the builder. Dead gates (not reachable from the outputs) are
    removed. The builder must not be used afterwards.
    Raises [Invalid_argument] on a second call. *)
