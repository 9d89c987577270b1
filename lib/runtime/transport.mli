(** Fault-tolerant framed transport over Unix domain sockets.

    This is the wire layer of the daemon ({!Service}): the coordinator
    and its persistent worker processes exchange length-prefixed,
    checksummed frames over anonymous [AF_UNIX] [socketpair]s
    ({!Supervisor}); named sockets and TCP carry the daemon's clients.
    The layer is built {e failure first}: every operation has a
    deadline, connections are established with bounded
    jittered-exponential-backoff retry, and every frame carries a
    CRC-32. A stream socket delivers each frame once and in order, so
    frames carry no sequence number. A lost connection is not repaired
    here: the {!Supervisor} kills its worker and respawns the slot on a
    fresh socketpair.

    {b Frame format} (little-endian):
    {v
      magic   4 B  "DSTR"
      version 1 B  (3)
      kind    1 B  caller-defined message kind
      pad     2 B  zero
      trace   8 B  request trace ID (0 = none; see Service)
      length  4 B  payload bytes
      crc32   4 B  CRC-32 (IEEE) of the payload
      payload
    v}

    {b Domains.} Everything this module measures is {e wall-domain}: RTTs,
    backoff sleeps, reconnects. Its metrics live in a registry that is
    never merged into a run's deterministic tick-domain collector — a
    request served through the daemon exports the same Obs bytes as a
    solo run (see DESIGN.md §10).

    {b Fault injection} happens above this layer: the worker pool carries
    a {!Supervisor.fault} in the task header, so its failure paths are
    replayable from a deterministic schedule. *)

type error =
  | Timeout of string  (** a read/write/connect/accept deadline expired *)
  | Closed of string  (** peer EOF, EPIPE/ECONNRESET *)
  | Integrity of string
      (** CRC mismatch, bad magic/version, or oversized frame — the byte
          stream is no longer trustworthy; callers must drop the
          connection *)

exception Error of error

val error_message : error -> string

type frame = {
  kind : int;
  trace : int64;
      (** request trace ID propagated end-to-end by the {!Service} layer;
          [0L] when the frame belongs to no request *)
  payload : bytes;
}

type t

val of_fd :
  ?metrics:Dstress_obs.Obs.Metrics.t ->
  ?log:Dstress_obs.Log.t ->
  Unix.file_descr ->
  t
(** Wrap a connected socket (set non-blocking here). Every frame-level
    read and write must finish within 10 s once it has started — a peer
    that stalls mid-frame surfaces as [Error (Timeout _)], never a
    hang. [log] (default {!Dstress_obs.Log.nop}) receives wall-domain
    events for timeouts and framing/CRC violations. *)

val pair :
  ?metrics:Dstress_obs.Obs.Metrics.t ->
  ?log:Dstress_obs.Log.t ->
  unit ->
  t * t
(** An anonymous [socketpair] — the default coordinator/worker link. *)

val listen : path:string -> Unix.file_descr
(** Bind and listen on a named Unix socket. A socket file at [path] that
    refuses a connection is stale, left by a listener that died, and is
    replaced. A live socket, or a file that is not a socket, stays, and
    [listen] raises [Unix.Unix_error (EADDRINUSE, _, _)]; the live
    listener sees the probe as one connection that hangs up at once. *)

val listen_tcp : host:string -> port:int -> unit -> Unix.file_descr * int
(** Bind and listen on a TCP address ([SO_REUSEADDR] set, backlog 16).
    [host] is a dotted quad or resolvable name; [port] 0 asks the kernel
    for an ephemeral port. Returns the listening descriptor and the
    actually bound port. The descriptor feeds the same {!accept} as
    the Unix-socket listener — deadline semantics are identical. *)

val accept :
  ?metrics:Dstress_obs.Obs.Metrics.t ->
  ?log:Dstress_obs.Log.t ->
  deadline:float ->
  Unix.file_descr ->
  t
(** Accept one connection within [deadline] seconds — address-family
    agnostic (Unix-socket and TCP listeners alike; an accepted TCP
    connection gets [TCP_NODELAY]). *)

val connect :
  ?metrics:Dstress_obs.Obs.Metrics.t ->
  ?log:Dstress_obs.Log.t ->
  ?attempts:int ->
  ?backoff:float ->
  path:string ->
  unit ->
  t
(** Connect to a named socket with bounded retry: up to [attempts]
    (default 8) tries, sleeping [backoff * 2^i * (0.5 + u_i)] between
    them ([u_i] uniform in [0,1) from a fixed-seed SplitMix stream).
    Default [backoff] 10 ms. Exhausted attempts raise [Error (Timeout _)].
    Sleeps are recorded under [transport.backoff_sleep_s]. *)

val connect_tcp :
  ?metrics:Dstress_obs.Obs.Metrics.t ->
  ?log:Dstress_obs.Log.t ->
  ?attempts:int ->
  ?backoff:float ->
  host:string ->
  port:int ->
  unit ->
  t
(** {!connect} over TCP: the same bounded jittered-exponential-backoff
    retry loop and the same [transport.connect_*] / [transport.backoff_*]
    counters, with the transient-errno set widened to the TCP ones
    ([ECONNREFUSED], [ETIMEDOUT], [EHOSTUNREACH], [ENETUNREACH]).
    [TCP_NODELAY] is set on the connected socket. *)

val send : t -> kind:int -> ?trace:int64 -> bytes -> unit
(** Frame and write the payload within the write deadline. [trace]
    (default [0L]) is carried verbatim in the frame header and delivered
    in {!recv}'s [frame.trace]. *)

val recv : t -> timeout:float -> frame option
(** Next frame, or [None] if none starts to arrive within [timeout]
    seconds. [timeout] 0 polls: a frame already readable is returned. A
    CRC or framing violation raises [Error (Integrity _)]. *)

val close : t -> unit
(** Idempotent. *)

val fd : t -> Unix.file_descr
val metrics : t -> Dstress_obs.Obs.Metrics.t

val close_quietly : Unix.file_descr -> unit
(** [Unix.close], ignoring its errors: for a descriptor being given up. *)

val select_r : Unix.file_descr list -> float -> Unix.file_descr list
(** The descriptors readable within [timeout] seconds ([Unix.select]'s
    timeout). A signal interrupting the wait (a daemon's SIGTERM drain
    handler) reads as none ready: the caller's loop decides whether to
    keep waiting. *)

(** Well-known frame kinds shared by the {!Supervisor}'s pool and the
    {!Service} daemon; [ping] and [echo] serve the RTT benchmarks and
    tests. The transport itself interprets none of them. *)
module Kind : sig
  val hello : int
  val heartbeat : int
  val task : int
  val result : int
  val error : int
  val shutdown : int
  val ping : int
  val echo : int

  val request : int
  (** a [DSTRESS-REQ/1] clearing request (client -> daemon, see {!Service}) *)

  val response : int
  (** a [DSTRESS-REQ/1] response (daemon -> client) *)

  val stats : int
  (** admin: ask a daemon for its live {!Service.stats} snapshot *)

  val stats_reply : int
  (** admin: the JSON-encoded stats snapshot (daemon -> client) *)
end
