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

val num_inputs : t -> int

val finish : t -> outputs:wire array -> Circuit.t
(** Seals the builder. Dead gates (not reachable from the outputs) are
    removed. The builder must not be used afterwards.
    Raises [Invalid_argument] on a second call. *)
