(** Structured, deterministic tracing and metrics for the DStress runtime.

    The paper's whole evaluation (Figures 3–6) is instrumentation — per-node
    traffic, per-phase cost, OT/AND counts, privacy-budget spend. This module
    is the one place all of that accounting flows through:

    - {b Spans} form the hierarchy [run > round > phase > block/edge task].
      A span's timeline is {e simulated}: its duration is the number of
      ticks explicitly charged inside it with {!advance} (the runtime
      charges one tick per wire byte and 10{^6} ticks per simulated recovery
      second). Wall-clock is recorded alongside each span but excluded from
      the default export, so the exported trace depends only on what the
      protocol did — never on the schedule.
    - {b Metrics} ({!Metrics}) are a typed name→value registry of counters,
      float sums, gauges and (wall-domain) quantile sketches that replaces
      the ad-hoc meter fields formerly scattered across [Engine.report]
      producers.
    - {b Exporters} write Chrome [trace_event] JSON ({!trace_json}) and a
      flat metrics JSON dump ({!metrics_json}).

    {b Determinism.} Parallel task batches collect into per-task child
    collectors ({!fork}) merged in task-index order ({!merge_into}): a
    child's spans are shifted onto the parent's cursor and its metrics are
    folded in sorted-name order. Because every charged tick is derived from
    deterministic protocol quantities, the exported trace and metrics are
    bit-identical across {!Dstress_runtime.Executor} backends (and so
    across how the engine groups vertices into GMW batches) on the same
    seed (locked down by [test/test_obs.ml]).

    {b Cost.} At level {!Off} (the default) every operation is a single
    branch on an immutable shared collector and {!fork} returns its
    argument — no allocation on the hot path, so benchmarks that leave
    observability off are unaffected. *)

type level =
  | Off  (** no-op: nothing is recorded *)
  | Full
      (** metrics, run/round/phase spans, per-task spans (vertices,
          edges, transfer attempts) and per-node traffic gauges *)

(** Typed metrics registry. Names are free-form dotted strings
    ([transfer.retries], [phase.computation.bytes], ...). The first
    emission under a name fixes its kind; mixing kinds under one name
    raises [Invalid_argument]. *)
module Metrics : sig
  type value =
    | Counter of int  (** additive integer count *)
    | Sum of float  (** additive float accumulator *)
    | Gauge of float  (** last-write-wins float *)
    | Quantiles of Sketch.t
        (** mergeable quantile sketch — wall-domain only; its estimates
            depend on arrival values, so it must never enter a registry
            that feeds the deterministic tick-domain exports *)

  type t

  val create : unit -> t
  val incr : ?by:int -> t -> string -> unit
  val add : t -> string -> float -> unit
  val set : t -> string -> float -> unit

  val observe_sketch : t -> string -> float -> unit
  (** Record into a {!Quantiles} sketch under [name], creating it on
      first use. *)

  val find : t -> string -> value option
  val counter : t -> string -> int
  (** 0 when absent; raises [Invalid_argument] on a non-counter. *)

  val sum : t -> string -> float
  (** 0. when absent; reads [Sum] and [Gauge] values. *)

  val names : t -> string list
  (** Sorted. *)

  val merge_into : dst:t -> t -> unit
  (** Fold counters/sums additively, overwrite gauges, combine quantile
      sketches — visiting the source in sorted-name order so float
      accumulation is deterministic. *)

  val to_json : t -> Json.t
  (** Quantile sketches carry count/total/mean/min/max and
      [p50]/[p90]/[p99]. *)
end

type span = {
  name : string;
  start : int;  (** simulated ticks from the collector's origin *)
  dur : int;
  depth : int;  (** nesting depth; the containing span is the innermost
                    enclosing span at [depth - 1] *)
  wall : float;  (** measured wall-clock seconds — informational only,
                     excluded from deterministic exports *)
  wall_start : float;
      (** absolute [Unix.gettimeofday] at {!enter} — feeds the opt-in
          wall-clock exports in {!Prof}; like [wall], never part of the
          deterministic tick-based exports. Unchanged by {!merge_into}
          (all collectors of a process share one clock). *)
}

type t

val off : t
(** The shared no-op collector (level {!Off}); safe to use from any domain. *)

val create : level:level -> unit -> t
val level : t -> level

val enabled : t -> bool
(** [level t <> Off]. *)

val metrics : t -> Metrics.t

val incr : ?by:int -> t -> string -> unit
val add : t -> string -> float -> unit
val set : t -> string -> float -> unit

val advance : t -> int -> unit
(** Charge simulated ticks to the open span (and the cursor). Negative or
    zero amounts are ignored. *)

val enter : t -> string -> unit
val leave : t -> unit
(** Close the innermost open span; its duration is the ticks {!advance}d
    (including by merged children) since the matching {!enter}. Raises
    [Invalid_argument] when no span is open. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] = {!enter}; [f ()]; {!leave} — exception-safe. *)

val fork : t -> t
(** A fresh child collector at the same level (the shared {!off} when
    disabled) for one parallel task. The child starts at tick 0 and depth
    0; {!merge_into} rebases it under the parent. *)

val merge_into : dst:t -> t -> unit
(** Append a forked child: shift its spans by the parent cursor and open
    depth, fold its metrics, advance the parent cursor by the child's.
    No-op when [dst == child] (the disabled case). Raises
    [Invalid_argument] if the child still has open spans. *)

val spans : t -> span list
(** Closed spans. Siblings appear in timeline order; a parent appears
    after its children (it closes last). *)

val trace_json : t -> string
(** Chrome [trace_event] export (load in [chrome://tracing] or Perfetto):
    one complete ("ph":"X") event per span, [ts]/[dur] in simulated ticks.
    Deterministic byte-for-byte on equal span lists. The wall-clock
    timeline is {!Prof.trace_wall_json}. *)

val metrics_json : t -> string
(** Flat object keyed by metric name, sorted. *)
