(** Compiled GMW evaluation plans.

    {!Gmw.eval} used to rediscover the circuit's round structure at every
    call: sweep the gate array, evaluate whatever local gates are ready,
    collect the ready AND gates into a batch, repeat — an
    O(AND-depth × gates) walk with per-round list and closure churn, paid
    once per vertex per round. A plan performs that scheduling exactly
    once per circuit: gates are partitioned into the circuit's AND-levels
    ({!Dstress_circuit.Circuit.and_levels}) with operand and destination
    wire indices precomputed, and the evaluator just replays the levels.

    The AND batch of level [r] contains exactly the AND gates at level
    [r+1] of [and_levels], in wire order — the same batches (same order,
    same sizes) the sweep produced, which is what keeps PRG draws, OT
    counts and metered traffic bit-identical to the historical evaluator.

    Plans are memoized per circuit (physical identity, thread-safe), so
    concurrent evaluations of the same circuit from a domain pool compile
    it once. A memoized plan lives exactly as long as its circuit. *)

type op =
  | Load_input of { dst : int; input : int }
      (** wire [dst] := input bit [input] (every party loads its share). *)
  | Load_const of { dst : int; value : bool }
      (** wire [dst] := [value] — party 0's share is [value], others 0. *)
  | Local_not of { dst : int; src : int }
      (** wire [dst] := ¬[src] — party 0 flips its share, others copy. *)
  | Local_xor of { dst : int; a : int; b : int }
      (** wire [dst] := [a] ⊕ [b], shares XOR locally. *)

type level = {
  and_dst : int array;
  and_a : int array;
  and_b : int array;
  post : op array;
}
(** One AND round: the batch of AND gates evaluated together (parallel
    arrays of destination/left/right wires) followed by the local gates
    that become computable once the batch lands. *)

type t

val of_circuit : Dstress_circuit.Circuit.t -> t
(** Memoized compilation, keyed weakly on the circuit's physical identity:
    the memo never keeps a dropped circuit's plan alive. *)

val compile : Dstress_circuit.Circuit.t -> t
(** Uncached compilation; exposed for tests. *)

val circuit : t -> Dstress_circuit.Circuit.t
val num_wires : t -> int

val depth : t -> int
(** Number of AND rounds ( = [Circuit.and_depth]). *)

val and_count : t -> int
(** Total AND gates across all levels ( = [Circuit.and_count]). *)

val prologue : t -> op array
val levels : t -> level array

val digest : t -> string
(** Structural hash (hex SHA-256) of the plan's circuit — gate list,
    input count and output wires. Two structurally equal circuits share
    a digest. It is structural, not physical identity, because every run
    rebuilds its circuits: a cached material drawn for an earlier run's
    circuit must still match the equal circuit the next run builds.

    {!compile} does not hash: the digest is computed on the first call and
    cached in the plan. Only preprocessing reads it (the engine's offline
    phase, {!Gmw.generate_material}, and evaluations of a session holding
    attached material), so plans evaluated inline never pay for it. The
    first read may race across domains on a shared plan; every racer gets
    the same string. *)

val compilations : unit -> int
(** Process-wide count of {!compile} runs (including those triggered by
    {!of_circuit} misses) — lets tests assert that memoization served a
    repeated circuit without recompiling. *)
