(** Worker-slot lifecycle shared by both process pools: the
    fork-per-batch executor ({!Distributed}) and the daemon's persistent
    pool ({!Service}).

    A supervisor owns a fixed array of worker {e slots}, each holding one
    forked worker process reached over an anonymous socketpair through
    {!Transport}. It decides how a worker is

    - {b forked}: the child closes every coordinator-side descriptor it
      inherits (sibling workers, fenced stragglers, and whatever the
      client names in [fork_fds]), so a leaked write end never masks an
      EOF elsewhere;
    - {b proven alive}: the worker sends a hello, then heartbeats from a
      side thread every [heartbeat_interval]; one phi-accrual
      {!Failure_detector} per slot turns silence into suspicion;
    - {b fenced}: every spawn runs under a fresh epoch. A suspected
      worker's connection moves to a fenced list that is still drained,
      so a straggler's late reply is read and dropped
      ([transport.fenced_frames]), never applied;
    - {b replaced}: a lost slot respawns at once, at most
      [max_respawns_per_slot] times, then it is abandoned;
    - {b reaped}: {!shutdown} sends shutdown frames, allows a 2 s grace,
      SIGKILLs stragglers and reaps every child ever forked.

    A worker runs one task at a time through the client's [serve]
    function. Wire faults reach the worker in the task header
    ({!dispatch}'s [faults]), one way for every client: a stall holds
    the worker silent (heartbeats included) before it serves the task, a
    partition mutes it without serving the task, long enough to be
    fenced, and then ends it, and a disconnect makes it sever its
    socket.

    All state is wall-domain: counters go to the client's registry
    ([pool.*], [transport.*]) and lifecycle events to its logger
    (spawned at [Info], lost at [Warn], abandoned at [Error]). *)

type 'j slot = private {
  sid : int;  (** stable slot id — the fault plans' "worker" *)
  mutable pid : int;
  mutable conn : Transport.t;
  mutable epoch : int;
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
      (** the job's reply from its current-epoch worker: [Ok] payload,
          or [Error] with the message of a task that failed there *)
  | Lost of 'j option * string
      (** a worker was lost for the given reason, and its slot already
          respawned or abandoned; the job it was running comes back *)

type 'j t

val create :
  workers:int ->
  heartbeat_interval:float ->
  phi:float ->
  io_deadline:float ->
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
  faults:Dstress_faults.Fault.fault list ->
  'j ->
  bytes ->
  'j event option
(** Send an {!idle} slot its next job; [trace] stamps the frame and the
    worker's log lines. Only the wire kinds of [faults] act. [Some (Lost
    _)] when the send itself failed. *)

val step : 'j t -> timeout:float -> 'j event list
(** One supervision turn: wait up to [timeout] for worker frames, drain
    live and fenced connections, apply replies by epoch, retire
    suspected workers (fenced) and broken connections (closed), reap
    exited children. Events come back in the order they happened. *)

val retire : 'j t -> 'j slot -> metric:string -> reason:string -> 'j event
(** Fence a live slot on the client's own grounds (counted in
    [metric]), as suspicion would. *)

val shutdown : 'j t -> 'j list
(** Stop and reap every worker; returns the jobs still in flight.
    Idempotent. *)
