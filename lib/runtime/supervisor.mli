(** Worker-slot lifecycle of the daemon's persistent pool ({!Service}).
    It is a module of its own so that the pool's queue policy (attempt
    budgets, deadlines, backpressure) never touches fork, heartbeats or
    signals; it is the one owner of the daemon's worker processes.

    A supervisor owns a fixed array of worker {e slots}, each holding one
    forked worker process reached over an anonymous socketpair through
    {!Transport}. It decides how a worker is

    - {b forked}: on a socketpair of its own; the child closes every
      coordinator-side descriptor it inherits (sibling workers, and
      whatever the client names in [fork_fds]), so a leaked write end
      never masks an EOF elsewhere;
    - {b proven alive}: the worker sends a hello, then heartbeats from a
      side thread every 50 ms; one phi-accrual {!Failure_detector} per
      slot (phi 8) turns silence into suspicion;
    - {b lost}, fail-stop: heartbeat suspicion, a broken connection, a
      failed dispatch or the client's own grounds ({!lose}) all end the
      same way. The connection is closed and the worker is SIGKILLed, so
      a lost worker never replies and never keeps running; a later
      {!step} reaps it;
    - {b replaced}: a lost slot respawns at once, at most
      [max_respawns_per_slot] times, then it is abandoned;
    - {b reaped}: {!shutdown} sends shutdown frames, allows a 2 s grace,
      SIGKILLs stragglers and reaps every child still unreaped.

    A worker runs one task at a time through the client's [serve]
    function. A {!fault} planted on a dispatch reaches the worker in the
    task header.

    All state is wall-domain: counters go to the client's registry
    ([pool.*], [transport.*]) and lifecycle events to its logger
    (spawned at [Info], lost at [Warn], abandoned at [Error]). *)

(** A wire fault planted on one dispatch, for chaos tests. It acts in
    wall time on the worker process; a run's tick timeline never sees
    it. The engine's protocol faults are a separate plan, [Fault.plan]. *)
type fault =
  | Stall of float
      (** the worker holds silent, heartbeats included, for this many
          seconds, then serves the task; a stall past suspicion gets it
          killed first *)
  | Partition
      (** the worker serves nothing and sends nothing until it is
          killed (or its connection is closed) *)
  | Disconnect  (** the worker severs its socket before serving the task *)

type 'j slot = private {
  sid : int;  (** stable slot id *)
  mutable pid : int;
  mutable conn : Transport.t;
  mutable det : Failure_detector.t;
  mutable running : 'j option;  (** the job in flight *)
  mutable trace : int64;  (** trace of the job in flight; [0L] when idle *)
  mutable alive : bool;
  mutable abandoned : bool;
  mutable respawns : int;
}

(** What became of jobs the client dispatched. *)
type 'j event =
  | Reply of 'j * (bytes, string) result
      (** the job's reply from its worker: [Ok] payload, or [Error] with
          the message of a task that failed there *)
  | Lost of 'j option * string
      (** a worker was lost for the given reason, and its slot already
          respawned or abandoned; the job it was running comes back *)

type 'j t

val create :
  workers:int ->
  max_respawns_per_slot:int ->
  ?log:Dstress_obs.Log.t ->
  metrics:Dstress_obs.Obs.Metrics.t ->
  ?fork_fds:(unit -> Unix.file_descr list) ->
  serve:(bytes -> (bytes, string) result) ->
  unit ->
  'j t
(** Fork [workers] workers. Each inherits [serve] by fork and answers
    every task with [serve payload]; an exception it raises fails only
    that task. [fork_fds] is consulted at every fork, respawns
    included. SIGPIPE is set to ignore, so a write racing a worker's
    death stays a typed [Closed] error. *)

val slots : 'j t -> 'j slot array

val idle : 'j slot -> bool
(** Alive and running nothing: ready for {!dispatch}. *)

val live_fds : 'j t -> Unix.file_descr list
(** Live worker descriptors, for embedding in an outer select. *)

val dispatch :
  'j t ->
  'j slot ->
  ?trace:int64 ->
  ?fault:fault ->
  'j ->
  bytes ->
  'j event option
(** Send an {!idle} slot its next job; [trace] stamps the frame and the
    worker's log lines, and [fault] (default none) is carried out by the
    worker on this task. [Some (Lost _)] when the send itself failed. *)

val step : 'j t -> timeout:float -> 'j event list
(** One supervision turn: wait up to [timeout] for worker frames, drain
    live connections and apply their replies, lose suspected workers
    and broken connections, reap exited children. Events come back in
    the order they happened. *)

val lose : 'j t -> 'j slot -> metric:string -> reason:string -> 'j event
(** Lose a live slot on the client's own grounds (counted in
    [metric]): its worker is killed and the slot respawned, as
    suspicion would. *)

val shutdown : 'j t -> 'j list
(** Stop and reap every worker; returns the jobs still in flight.
    Idempotent. *)
