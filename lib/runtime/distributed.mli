(** Multi-process executor backend: blocks run as separate OS processes.

    A {!map} call is one {e dispatch batch}: the pool forks [workers]
    worker processes, each inheriting (copy-on-write) the coordinator's
    full state snapshot — so the task closure needs no marshalling; only
    task indices and {e results} (plain data by the {!Executor} task
    contract) cross the process boundary, as [Marshal]-encoded payloads
    in {!Transport} frames over anonymous Unix socketpairs.

    {b Fault tolerance.} Tasks are dispatched dynamically: any idle
    worker takes the next pending index, so a lost worker only costs a
    redispatch. The worker slots are run by a {!Supervisor} — heartbeat
    suspicion, epoch fencing, per-slot respawn and abandonment, reaping
    — the same one that runs the daemon's pool ({!Service}). A suspected
    worker is treated exactly like a [Crash_node] fault at the protocol
    layer: its task is requeued and its slot respawned under a {b new
    epoch}, while its socket stays readable until the batch ends, so a
    straggler's late reply is dropped by the epoch fence
    ([transport.fenced_frames]) rather than applied twice. On top of the
    per-slot budget the batch has a total respawn budget. When nothing
    live remains, the total budget is exhausted, or the batch deadline
    expires, {!map} fails fast with the typed {!Degraded} report — it
    never hangs.

    {b Determinism.} The pool touches only wall-domain state: results
    are merged in index order by {!Phase.run_tasks} exactly as for the
    in-process backends, so tick-domain Obs exports are byte-identical
    to [Sequential]. Everything the pool itself measures (respawns,
    suspicions, fenced frames, plus the per-connection transport
    counters) lives in {!metrics}, a registry that is never merged into
    a run collector.

    {b Wire faults.} A fault source installed with {!set_fault_source}
    is consulted at every task dispatch: [Disconnect_worker] makes the
    worker sever its socket on its first task of the batch,
    [Stall_worker] makes it go silent that long before replying to that
    task (tripping the failure detector and exercising the epoch fence
    when the stall outlasts [phi × heartbeat_interval]),
    [Partition_worker] mutes every task the slot — respawns included —
    receives during the batch interval, forcing abandonment. *)

type opts = {
  workers : int;  (** worker processes per batch (>= 1) *)
  heartbeat_interval : float;  (** worker heartbeat period, seconds *)
  phi : float;  (** failure-detector suspicion threshold *)
  io_deadline : float;  (** per-frame read/write deadline, seconds *)
  poll_interval : float;  (** coordinator select slice, seconds *)
  batch_deadline : float;  (** whole-batch wall bound, seconds *)
  max_respawns_per_slot : int;
      (** respawns of one slot within a batch before it is abandoned *)
  max_respawns_total : int;
      (** respawns across all slots within a batch before {!Degraded} *)
}

val default_opts : opts
(** 2 workers over socketpairs, 50 ms heartbeats, [phi] 8, 10 s frame
    deadlines, 20 ms poll, 60 s batch deadline, 2 respawns per slot,
    8 per batch. *)

type degradation = {
  batch : int;
  reason : string;
  completed : int;  (** tasks finished before the pool gave up *)
  count : int;  (** tasks in the batch *)
  respawns : int;
  abandoned : int;  (** slots written off *)
}

exception Degraded of degradation
(** The batch could not finish under the failure budget. Raised fast —
    every wait in the pool is deadline-bounded. *)

exception Task_failed of { index : int; message : string }
(** A task raised on its worker; the exception text made the round trip
    in an error frame. Raised for the lowest failing index after the
    batch drains, mirroring the in-process backends. *)

val pp_degradation : Format.formatter -> degradation -> unit

type ctx

val create : ?opts:opts -> ?log:Dstress_obs.Log.t -> unit -> ctx
(** Raises [Invalid_argument] if [workers < 1] or an interval/deadline
    is not positive. [log] (default {!Dstress_obs.Log.nop}) receives
    wall-domain pool lifecycle events — spawns at [Info], lost workers
    at [Warn], abandonment/degradation at [Error] — and is threaded into
    the coordinator-side transports; it never affects tick-domain
    exports. *)

val opts : ctx -> opts

val metrics : ctx -> Dstress_obs.Obs.Metrics.t
(** Wall-domain pool + transport counters for the current run (fresh
    after {!begin_run}); never part of tick-domain exports. *)

val begin_run : ctx -> unit
(** Reset the batch counter and start a fresh metrics registry: batches
    of a new run line up with a wire-fault plan's batch indices. *)

val set_fault_source : ctx -> (batch:int -> worker:int -> Dstress_faults.Fault.fault list) -> unit
(** Consulted at every task dispatch with the slot's batch and slot id;
    only wire-level faults ({!Dstress_faults.Fault.is_wire}) are acted
    on. Typically [Fault.Injector.wire_faults], so firings are recorded
    in the same injector the engine reports from. *)

val clear_fault_source : ctx -> unit

val batches_dispatched : ctx -> int
(** Batches dispatched since {!begin_run} — the next batch index. *)

val map : ctx -> int -> (int -> 'a) -> 'a array
(** [map ctx count f] evaluates [f i] for [0 <= i < count] on forked
    worker processes and returns the results in index order. ['a] must
    be marshal-safe plain data (no closures — the {!Executor} task
    contract). Raises {!Degraded} or {!Task_failed} as above. *)
