(** Daemon mode: a persistent worker pool serving concurrent clearing
    requests over the framed transport ([DSTRESS-REQ/1]).

    The {!Distributed} backend pays its dispatch tax per batch: every
    [map] forks a fresh worker set so the children snapshot the current
    coordinator heap. A long-running daemon inverts the economics — the
    work arrives as self-contained {e requests} (plain wire data, no
    closures), so workers can be forked {b once at startup} and reused
    across requests forever. This module provides the three layers of
    that daemon:

    + a typed request/response codec ([DSTRESS-REQ/1], {!request} /
      {!response}) carried in {!Transport.Kind.request} /
      [response] frames;
    + a persistent {!pool}: workers forked at creation (inheriting the
      handler via copy-on-write) and kept warm across requests, their
      slots run by the same {!Supervisor} as the per-batch pool — plus
      a bounded submission queue with typed backpressure, per-request
      attempt budgets and deadlines;
    + a single-threaded {!serve} loop multiplexing a listener (Unix
      socket or TCP), client connections and the pool, with graceful
      drain on SIGTERM/SIGINT.

    {b Fork-before-domain startup order (OCaml 5).} [Unix.fork] is
    forbidden once {e any} [Domain.spawn] has happened in the process —
    permanently, even after the domain is joined. The daemon therefore
    forks its whole worker pool before touching any domain pool, and the
    coordinator process never spawns domains at all (so respawning a
    crashed worker mid-service stays legal). Inside a worker the
    constraint resurfaces per request: see {!request_executor}.

    {b Determinism.} A request is executed by exactly one worker as one
    ordinary engine run with its own per-request [Obs] registry, so the
    tick-domain trace/metrics exports returned in {!summary} are
    byte-identical to a solo run of the same seeded config — whichever
    worker serves it, whatever else the daemon is doing, and under every
    in-worker executor (the executor invariance is already proven for
    the engine). Warm state carried across requests ({!Dstress_mpc}'s
    [Triple.Cache], keyed by plan digest/parties/seed/slice width/OT
    mode) only moves wall-clock, never ticks. *)

type workload = En | Egj

(** A [DSTRESS-REQ/1] clearing request: everything needed to rebuild the
    seeded network and engine config on the far side of the wire. *)
type request = {
  workload : workload;
  core : int;  (** core banks in the synthetic network *)
  periphery : int;  (** peripheral banks *)
  iterations : int;  (** protocol rounds *)
  k : int;  (** collusion bound *)
  seed : int;  (** network + run seed *)
  slice_width : int;  (** bitsliced GMW batch width, 1-64 *)
  ot_mode : Dstress_crypto.Ot_ext.mode;
  preprocess : bool;  (** run the offline phase before the online rounds *)
  executor : string;
      (** in-worker executor spec ({!Executor.of_string}); [""] means
          sequential. See {!request_executor} for the downgrade rule. *)
}

(** The deterministic outcome of one served request. [trace] / [metrics]
    are the tick-domain Obs exports — byte-identical to a solo run. *)
type summary = {
  output : int;  (** the noised aggregate — the only opened value *)
  mpc_rounds : int;
  mpc_and_gates : int;
  mpc_ots : int;
  trace : string;
  metrics : string;
}

type response =
  | Completed of summary
  | Rejected of string
      (** refused before execution: malformed or invalid request, queue
          full, daemon draining *)
  | Degraded of string
      (** accepted but failed in execution despite recovery: respawn /
          re-dispatch budgets exhausted, worker error, shutdown deadline *)

val encode_request : request -> bytes
val decode_request : bytes -> (request, string) result
(** Structural validation only (magic ["DREQ"], version, bounds of the
    byte stream); {!validate_request} checks the field values. *)

val encode_response : response -> bytes
val decode_response : bytes -> (response, string) result

val validate_request : request -> (unit, string) result
(** Field-level checks: positive sizes, [slice_width] in [1, 64], a
    parseable [executor] spec, sane payload lengths. *)

val request_executor : request -> (Executor.t, string) result
(** Resolve the request's executor spec inside a worker process, under
    the OCaml 5 fork-after-domain prohibition: once this worker has run
    any [parallel[:N]] request it can never fork again, so a later
    [distributed[:N]] spec silently downgrades to sequential (results
    and tick-domain exports are executor-invariant, so the response is
    unchanged). The taint is per process and monotone. *)

(** {1 Persistent pool} *)

type pool_opts = {
  workers : int;  (** persistent worker processes, forked at creation *)
  queue_depth : int;  (** bound on requests awaiting dispatch *)
  heartbeat_interval : float;
  phi : float;  (** suspicion threshold of the phi-accrual detector *)
  io_deadline : float;  (** per-frame read/write deadline, seconds *)
  poll_interval : float;  (** max wait per {!pool_step} select *)
  request_deadline : float;
      (** wall bound on one dispatched attempt; exceeding it fences the
          worker and re-dispatches — a wedged worker can never hang a
          request *)
  max_respawns_per_slot : int;  (** then the slot is abandoned *)
  max_attempts_per_request : int;  (** then the request degrades *)
  slow_request_s : float;
      (** end-to-end latency above which a finished request logs at
          [Warn] instead of [Info] (the slow-request log) *)
}

val default_pool_opts : pool_opts
(** 2 workers, queue depth 64, 50 ms heartbeats, phi 8, 10 s io
    deadline, 20 ms poll, 120 s request deadline, 2 respawns per slot,
    3 attempts per request, 5 s slow-request threshold. *)

type pool

val create_pool :
  ?opts:pool_opts ->
  ?log:Dstress_obs.Log.t ->
  ?fork_fds:(unit -> Unix.file_descr list) ->
  handler:(request -> summary) ->
  unit ->
  pool
(** Fork [opts.workers] persistent workers over anonymous socketpairs.
    Must run before any [Domain.spawn] in this process. Each worker
    inherits [handler] via fork and serves requests one at a time:
    heartbeating from a side thread, replying [Completed] (or a typed
    error that surfaces as [Degraded]) in an epoch-tagged result frame.
    A handler exception inside a worker fails only that request, never
    the worker. [fork_fds] (consulted at every fork, including respawns)
    names descriptors the embedding process holds — listener, client
    connections — that children must close; SIGPIPE is set to ignore so
    a write racing a worker death stays a typed [Closed] error.

    [log] (default {!Dstress_obs.Log.nop}) receives the pool's
    wall-domain lifecycle events — the {!Supervisor}'s slot lines
    (spawned, lost, abandoned), per-request enqueue/dispatch/finish (the
    per-request lines at [Debug], completions at [Info], failures and
    slow requests at [Warn]/[Error]) — request lines stamped with the
    request's trace ID.
    The same logger is inherited by the forked workers and threaded into
    their transports. *)

val pool_metrics : pool -> Dstress_obs.Obs.Metrics.t
(** Wall-domain supervision counters ([service.*], [pool.*],
    [transport.*]) plus the latency sketches ([service.queue_wait_s],
    [service.dispatch_s], [service.request_s]) and queue/uptime gauges
    ([service.queue_depth], [service.queue_high_water],
    [service.uptime_seconds]) — never merged into any request's
    tick-domain Obs. *)

val pool_log : pool -> Dstress_obs.Log.t
(** The logger given at {!create_pool} ({!Dstress_obs.Log.nop} by
    default); its ring tail feeds {!pool_stats}. *)

val set_pool_fault_source :
  pool -> (request_index:int -> worker:int -> Dstress_faults.Fault.fault list) -> unit
(** Deterministic wire-fault injection for chaos tests, consulted at
    each dispatch ([request_index] counts dispatches, the "batch" of a
    {!Dstress_faults.Fault.random_wire_plan}). Only wire kinds apply:
    disconnect closes the worker mid-request, stall delays its reply
    past the suspicion window, partition mutes it (no reply, no
    heartbeats) long enough to be fenced. *)

val submit :
  pool -> request -> (response -> unit) -> [ `Queued | `Queue_full | `No_workers ]
(** Enqueue a request. The callback fires exactly once, from inside a
    later {!pool_step} — with [Completed], or [Degraded] when every
    recovery lever is exhausted. [`Queue_full] and [`No_workers] (all
    slots abandoned) reject immediately without invoking the callback:
    the caller owns the backpressure reply. *)

val pool_step : pool -> timeout:float -> unit
(** One supervision turn: dispatch queued requests to idle live workers,
    wait up to [timeout] for worker frames, apply epoch-fenced results,
    run heartbeat suspicion / request deadlines, respawn and re-dispatch
    as needed, reap exited children. [timeout] 0 polls. *)

val pool_idle : pool -> bool
(** No queued and no in-flight requests. *)

val pool_fds : pool -> Unix.file_descr list
(** Live worker descriptors, for embedding in an outer select. *)

val shutdown_pool : ?drain_deadline:float -> pool -> unit
(** Finish queued + in-flight requests (stepping until {!pool_idle} or
    [drain_deadline] seconds, default 30 — any survivors degrade with a
    shutdown message), then stop workers: shutdown frames, a grace
    period, SIGKILL stragglers, reap every child. Idempotent. *)

(** {1 Live stats}

    A point-in-time snapshot of the daemon's wall-domain state, served
    over the wire as the [Stats] admin request ({!Transport.Kind.stats}
    / [stats_reply], JSON payload) and rendered either as JSON
    ({!stats_to_json}) or Prometheus text ({!stats_prometheus}). *)

type worker_stat = {
  w_slot : int;  (** slot index, stable across respawns *)
  w_pid : int;
  w_state : string;  (** ["idle" | "busy" | "abandoned"] *)
  w_epoch : int;  (** current fencing epoch *)
  w_respawns : int;
  w_trace : int64;  (** trace of the running request; [0L] when idle *)
}

(** Flattened quantile-sketch summary: exact count/total/mean/min/max,
    p50/p90/p99 within {!Dstress_obs.Sketch.default_alpha} relative
    error ([0.] when empty). *)
type latency_stat = {
  l_count : int;
  l_total : float;
  l_mean : float;
  l_min : float;
  l_max : float;
  l_p50 : float;
  l_p90 : float;
  l_p99 : float;
}

type stats = {
  uptime_s : float;
  queue_depth : int;
  queue_high_water : int;  (** max depth observed since startup *)
  queue_capacity : int;
  workers : worker_stat list;  (** one per slot, in slot order *)
  counters : (string * int) list;
      (** every wall-domain counter ([service.*], [pool.*],
          [transport.*]), sorted by name *)
  latencies : (string * latency_stat) list;
      (** every latency sketch, sorted by name *)
  log_tail : string list;  (** rendered tail of the log ring, oldest first *)
}

val pool_stats : pool -> stats
(** Snapshot the pool now. Cheap (no locking beyond the log ring). *)

val stats_schema : string
(** ["dstress-stats/1"], the [schema] tag of the JSON encoding. *)

val stats_to_json : stats -> Dstress_obs.Json.t
val stats_of_json : Dstress_obs.Json.t -> (stats, string) result

val encode_stats : stats -> bytes
(** The wire payload of a [stats_reply] frame: the JSON document,
    deterministic for a given snapshot. *)

val decode_stats : bytes -> (stats, string) result

val stats_prometheus : stats -> string
(** Prometheus text exposition: [dstress_]-prefixed sanitized names,
    per-worker labeled gauges, summary-style quantile rows
    ([..{quantile="0.5"} v] plus [_sum]/[_count]), and the log tail as
    trailing comment lines. *)

val fetch_stats : ?timeout:float -> Transport.t -> stats
(** Client side of the [Stats] admin request ([timeout] default 10 s,
    raising {!Transport.Error} on timeout or an undecodable reply).
    Works on the same connection as {!call}, even mid-drain. *)

(** {1 Server} *)

type listen_addr =
  | Unix_socket of string  (** path *)
  | Tcp of string * int  (** host, port — port 0 binds an ephemeral one *)

val bind_listener : listen_addr -> Unix.file_descr * string
(** Bind and listen; returns the descriptor and a printable bound
    address ("path" or "host:port" with the actual port). Exposed
    separately from {!serve} so a test can learn the ephemeral TCP port
    before forking the daemon. *)

val serve :
  ?pool_opts:pool_opts ->
  ?log:Dstress_obs.Log.t ->
  ?ready:(addr:string -> unit) ->
  ?stop:(unit -> bool) ->
  handler:(request -> summary) ->
  listener:Unix.file_descr ->
  addr:string ->
  unit ->
  unit
(** Run the daemon on an already-bound listener: fork the pool (before
    any domains — callers must not have spawned any), then multiplex the
    listener, every client connection and the pool in one select loop.
    Each client connection carries at most one in-flight request;
    malformed frames get a typed [Rejected] reply, a queue-full submit
    gets typed backpressure, an integrity violation drops the
    connection. SIGTERM/SIGINT (or [stop ()] returning true) starts a
    graceful drain: stop accepting, finish queued and in-flight
    requests, reply to their clients, shut the pool down, restore the
    signal handlers and return. [ready] is called once listening.
    [Stats] admin frames are answered on any client connection at any
    time — including while draining and while a clearing request is in
    flight on that connection. [log] is passed to the pool
    ({!create_pool}) and also receives server-level events. *)

val call : ?timeout:float -> Transport.t -> request -> response
(** Client side: send one request frame and decode the matching response
    ([timeout] default 120 s, raising {!Transport.Error} on timeout or a
    dropped connection). *)
