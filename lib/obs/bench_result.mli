(** Typed benchmark results and their JSON wire format.

    Every benchmark in [bench/] reports through this schema
    (["dstress-bench/1"]): a {!doc} holds one {!suite} per bench
    experiment, each a list of {!result} rows. A row separates three
    kinds of telemetry with different comparison semantics:

    - [wall]/[throughput]: measured wall-clock — machine-dependent, so
      the diff tool ([Bench_diff]) gates them by a relative threshold;
    - [counters]: integers snapshotted from {!Obs.Metrics} (AND gates,
      OT batches, phase/traffic bytes) — seed-deterministic and
      machine-independent, so any change at all is a drift;
    - [floats]: other derived numbers (projections, rates) —
      informational only, never gated.

    [to_json]/[of_json] round-trip exactly (pinned by [test/test_bench]):
    the printer emits fields in a fixed order and sorts [counters] and
    [floats] by name. *)

type wall = {
  median_s : float;
  min_s : float;
  p10_s : float;
  p90_s : float;
}

type result = {
  name : string;  (** row id, unique within a suite together with [params] *)
  params : (string * Json.t) list;
      (** experiment coordinates (n, nodes, width, ...) — part of the
          row's identity when diffing *)
  repeats : int;  (** timed repetitions summarised in [wall] *)
  warmup : int;  (** untimed repetitions before the timed ones *)
  wall : wall option;  (** [None] for rows that only carry counters *)
  throughput : (string * float) option;
      (** derived [(unit, items-per-second)] from the median repeat *)
  counters : (string * int) list;  (** sorted by name *)
  floats : (string * float) list;  (** sorted by name *)
}

type suite = { suite : string; results : result list }

type doc = { mode : string; suites : suite list }
(** [mode] is ["quick"] or ["full"] — recorded so a diff can warn when
    comparing across modes. *)

val schema : string
(** ["dstress-bench/1"] — stamped into every document. *)

val make_result :
  ?params:(string * Json.t) list ->
  ?repeats:int ->
  ?warmup:int ->
  ?wall:wall ->
  ?throughput:string * float ->
  ?counters:(string * int) list ->
  ?floats:(string * float) list ->
  string ->
  result
(** Row constructor; sorts [counters] and [floats] by name and drops
    non-finite float entries (they have no JSON representation).
    Defaults: no params, 1 repeat, 0 warmup, no wall/throughput, empty
    lists. *)

val wall_of_samples : float list -> wall
(** Summarise raw per-repeat seconds: median/min/p10/p90. Raises
    [Invalid_argument] on an empty list. *)

val key : result -> string
(** Identity of a row within its suite: [name] plus rendered [params]. *)

val to_json : doc -> Json.t
val of_json : Json.t -> (doc, string) Stdlib.result
(** Strict: unknown schema tags and malformed rows are errors. *)

val write_file : string -> doc -> unit
(** Render [to_json] to [path] (with a trailing newline). *)

val read_file : string -> (doc, string) Stdlib.result
(** Parse a document from [path]; IO and parse errors as [Error]. *)

val counters_of_metrics : Obs.Metrics.t -> (string * int) list
(** Snapshot every [Counter] in a registry, sorted by name — the bridge
    from an instrumented run to a result row. *)

val floats_of_metrics : Obs.Metrics.t -> (string * float) list
(** Snapshot [Sum]/[Gauge] values directly and quantile sketches as
    derived [name.mean]/[name.min]/[name.max]/[name.p50]/[name.p90]/
    [name.p99] (plus a [name.count] entry in {!counters_of_metrics}),
    sorted by name. *)
