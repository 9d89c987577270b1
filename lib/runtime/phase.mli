(** Protocol phases as schedulable work units.

    Each engine phase (setup, initialization, computation round,
    communication round, aggregation) is expressed as a batch of
    {e independent tasks} — one per block or per edge — plus a
    {e sequential merge} that folds each task's private traffic matrix and
    counters into the run-wide accounting in task-index order. The batch
    runs under any {!Executor} backend; because tasks touch only
    task-owned state and the merge order is fixed, the run's output and
    its report are identical under every schedule.

    {b Observability.} The accounting owns a {!Dstress_obs.Obs} collector.
    Every phase step is wrapped in a [phase:<name>] span; task batches
    fork one child collector per task (handed to the task function) and
    merge them back in index order, so spans and metrics collected inside
    parallel tasks are deterministic — bit-identical across executors.
    Byte counts are charged to the simulated span timeline at one tick per
    byte, simulated recovery delay at 10{^6} ticks per second
    ({!Accounting.add_recovery}). *)

type id = Setup | Initialization | Computation | Communication | Aggregation

val name : id -> string
val all : id list

(** Run-wide accounting: the global traffic matrix plus wall-clock
    seconds, wire bytes and simulated recovery delay attributed per phase,
    and the run's observability collector. Multiple batches may charge the
    same phase (e.g. one computation batch per round); the entries
    accumulate. *)
module Accounting : sig
  type t

  val create : ?obs:Dstress_obs.Obs.t -> parties:int -> unit -> t
  (** [obs] defaults to the no-op collector {!Dstress_obs.Obs.off}. *)

  val traffic : t -> Dstress_mpc.Traffic.t
  (** The global per-node matrix, under global node ids. *)

  val obs : t -> Dstress_obs.Obs.t

  val add_recovery : t -> id -> float -> unit
  (** Add simulated backoff/handoff seconds (kept apart from measured
      wall-clock). Also emitted as the [phase.<name>.recovery_seconds]
      metric. The trace-timeline ticks are {e not} advanced here: the
      caller charges them with {!Dstress_faults.Fault.delay_ticks} at the
      point in the task timeline where the wait happens, so span
      placement does not depend on how tasks are grouped. *)

  val phase_seconds : t -> (id * float) list
  val phase_bytes : t -> (id * int) list
  val recovery_seconds : t -> (id * float) list
  (** All three list every phase in {!all} order. *)
end

val run_sequential : Accounting.t -> id -> (unit -> 'a) -> 'a
(** [run_sequential acc phase f] runs [f] as the phase's single sequential
    step on the calling domain. [f] writes the global matrix directly;
    its wall-clock time and traffic growth are charged to [phase] (and to
    the phase's span and byte metric). *)

type 'a task_result = {
  traffic : Dstress_mpc.Traffic.t;
      (** the task's private matrix (global node ids), merged by the
          framework *)
  payload : 'a;  (** counters etc., handed to [merge] in index order *)
}

val run_tasks :
  Executor.t ->
  Accounting.t ->
  id ->
  ?task_label:(int -> string) ->
  count:int ->
  task:(Dstress_obs.Obs.t -> int -> 'a task_result) ->
  merge:(int -> 'a -> unit) ->
  unit ->
  unit
(** [run_tasks exec acc phase ~count ~task ~merge ()] executes the batch
    under [exec], then — sequentially, in increasing task index — merges
    each task's traffic into the global matrix, rebases its observability
    child into the run collector, and calls [merge i payload]. Tasks must
    not touch the global matrix or any state another task reads; they may
    freely use the child collector they are handed.

    When [task_label] is given and the collector is live, each task is
    wrapped in a span named [task_label i] and the framework advances the
    child's timeline by the task's total traffic bytes. When it is
    omitted the task body owns its own span/timeline emission — used by
    the computation phase, whose spans are per {e vertex} so that traces
    stay identical however the vertices are grouped into GMW batches.

    Wall-clock of the whole batch (including the merge) and the merged
    bytes are charged to [phase]. *)
