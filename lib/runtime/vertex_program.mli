(** The §3.1 vertex-programming model.

    A vertex program packages:
    + a per-vertex state layout ([state_bits]) and message width
      ([message_bits] — the paper's L);
    + an update function, expressed as a circuit fragment over the
      builder: given the shared state and D incoming messages it produces
      the new state and D outgoing messages (slot [s] feeds the vertex's
      [s]-th out-neighbor; unused slots carry the no-op message, which
      every vertex must emit to keep its communication pattern
      data-independent);
    + a per-vertex aggregand (the contribution the aggregation function
      sums — e.g. the vertex's dollar shortfall) and the output-noise
      parameters (sensitivity and epsilon, §4.4–4.5).

    The engine instantiates the fragments into {!Dstress_circuit.Circuit}s
    once per degree bound and evaluates them under GMW inside each block. *)

type t = {
  name : string;
  state_bits : int;
  message_bits : int;
  iterations : int;  (** communication rounds (n); a final computation
                         step runs after the last round *)
  sensitivity : int;  (** output sensitivity s, in output units *)
  epsilon : float;  (** per-run privacy cost eps_query *)
  noise_max_magnitude : int;  (** truncation bound of the in-circuit noise *)
  agg_bits : int;  (** width of the aggregate *)
  build_update :
    Dstress_circuit.Builder.t ->
    state:Dstress_circuit.Word.t ->
    incoming:Dstress_circuit.Word.t array ->
    Dstress_circuit.Word.t * Dstress_circuit.Word.t array;
      (** [(new_state, outgoing)]; [outgoing] must have the same length as
          [incoming] and each message must be [message_bits] wide *)
  build_aggregand :
    Dstress_circuit.Builder.t -> state:Dstress_circuit.Word.t -> Dstress_circuit.Word.t;
      (** per-vertex contribution, [agg_bits] wide *)
}

val update_circuit : t -> degree:int -> Dstress_circuit.Circuit.t
(** Inputs: [state_bits + degree * message_bits] (state first, then the
    message slots in order). Outputs: [state_bits + degree * message_bits].
    Raises [Invalid_argument] if the fragment returns malformed widths. *)

val partial_aggregate_circuit : t -> count:int -> Dstress_circuit.Circuit.t
(** Sums [count] vertex aggregands (inputs: [count * state_bits]); output
    is the [agg_bits]-wide partial sum, without noise — the inner level of
    an aggregation tree. *)

val combine_circuit : t -> count:int -> noised:bool -> Dstress_circuit.Circuit.t
(** Sums [count] partial aggregates (inputs: [count * agg_bits], plus — if
    [noised] — [Noise_circuit.input_bits ~max_magnitude:noise_max_magnitude]
    uniform bits appended). The noised variant adds two-sided geometric
    noise with [alpha = exp(-epsilon / sensitivity)], which is the final
    DStress noising step. *)

val aggregate_circuit : t -> count:int -> Dstress_circuit.Circuit.t
(** Single-level aggregation: [count] vertex states in, noised aggregate
    out (inputs: [count * state_bits] plus the same uniform bits). *)
