(** Boolean circuit intermediate representation.

    DStress executes every vertex update function, the aggregation function
    and the noising step as boolean circuits under GMW (§3.1, §3.6), so the
    circuit is the lingua franca between the algorithm layer ({!Dstress_risk})
    and the MPC engine ({!Dstress_mpc}).

    A circuit is an array of gates in topological order (a gate only refers
    to earlier wires). The gate basis is [{Input, Const, Not, Xor, And}] —
    XOR and NOT are free in GMW; only AND gates cost communication, which
    is why {!and_count} and {!and_depth} are the two numbers the cost model
    cares about. *)

type wire = int
(** Index of the gate producing the value. *)

type gate =
  | Input of int  (** [Input k] reads the [k]-th circuit input. *)
  | Const of bool
  | Not of wire
  | Xor of wire * wire
  | And of wire * wire

type t = private {
  gates : gate array;
  num_inputs : int;
  outputs : wire array;
}

val make : gates:gate array -> num_inputs:int -> outputs:wire array -> t
(** Validates topological order, wire ranges and input indices.
    Raises [Invalid_argument] on malformed circuits. *)

val eval : t -> bool array -> bool array
(** Plaintext evaluation; the semantics oracle the MPC engine is tested
    against. Raises [Invalid_argument] if the input length is wrong. *)

val and_count : t -> int

val and_depth : t -> int
(** Number of AND layers on the critical path = GMW round count. *)

val and_levels : t -> int array
(** Per-gate AND level: level 0 gates depend on no AND gate; an AND gate at
    level [l] can be evaluated in GMW round [l]. The array is indexed by
    wire. *)

type stats = {
  inputs : int;
  gates : int;
  ands : int;
  xors : int;
  nots : int;
  depth : int;
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
