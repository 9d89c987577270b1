(** Fault-tolerant framed transport over Unix domain sockets.

    This is the wire layer of the {!Distributed} runtime: the coordinator
    and its worker processes exchange length-prefixed, checksummed frames
    over anonymous [AF_UNIX] [socketpair]s; named sockets and TCP carry
    the daemon's clients ({!Service}). The layer is built {e failure
    first} — every operation has a deadline, connections are established
    with bounded jittered-exponential-backoff retry, every frame carries a
    CRC-32 and a sequence number, and receivers drop duplicates
    idempotently so a retransmission after a reconnect can never be
    applied twice.

    {b Frame format} (little-endian):
    {v
      magic   4 B  "DSTR"
      version 1 B  (2)
      kind    1 B  caller-defined message kind
      pad     2 B  zero
      epoch   4 B  fencing epoch (see Supervisor)
      seq     8 B  per-connection monotone sequence number
      trace   8 B  request trace ID (0 = none; see Service)
      length  4 B  payload bytes
      crc32   4 B  CRC-32 (IEEE) of the payload
      payload
    v}

    {b Domains.} Everything this module measures is {e wall-domain}: RTTs,
    backoff sleeps, retransmits, reconnects. Its metrics live in a
    registry that is never merged into a run's deterministic tick-domain
    collector — Obs exports stay byte-identical whether or not a
    transport sits under the run (see DESIGN.md §10).

    {b Fault injection.} A connection accepts an injection hook consulted
    on every send: the hook can stall the write (a slow or wedged peer)
    or sever the connection (a crashed peer / broken socket). The worker
    pools inject the wire fault kinds of {!Dstress_faults.Fault} through
    the {!Supervisor}'s task header instead, so their failure paths are
    replayable from a deterministic plan. *)

type error =
  | Timeout of string  (** a read/write/connect/accept deadline expired *)
  | Closed of string  (** peer EOF, EPIPE/ECONNRESET, or injected sever *)
  | Integrity of string
      (** CRC mismatch, bad magic/version, or oversized frame — the byte
          stream is no longer trustworthy; callers must drop the
          connection *)

exception Error of error

val error_message : error -> string

type frame = {
  kind : int;
  epoch : int;
  seq : int64;
  trace : int64;
      (** request trace ID propagated end-to-end by the {!Service} layer;
          [0L] when the frame belongs to no request *)
  payload : bytes;
}

type action =
  | Pass
  | Stall of float  (** sleep this many wall seconds before the write *)
  | Sever  (** close the socket abruptly instead of writing *)

type t

val of_fd :
  ?metrics:Dstress_obs.Obs.Metrics.t ->
  ?log:Dstress_obs.Log.t ->
  ?read_deadline:float ->
  ?write_deadline:float ->
  ?retain:bool ->
  Unix.file_descr ->
  t
(** Wrap a connected socket (set non-blocking here). [read_deadline] /
    [write_deadline] (default 10 s) bound every frame-level operation —
    a peer that stalls mid-frame surfaces as [Error (Timeout _)], never a
    hang. With [retain] (default false) sent frames are kept until
    {!ack}ed so {!retransmit_from} can replay them after a reconnect.
    [log] (default {!Dstress_obs.Log.nop}) receives wall-domain events for
    timeouts, framing/CRC violations and duplicate drops. *)

val pair :
  ?metrics:Dstress_obs.Obs.Metrics.t ->
  ?log:Dstress_obs.Log.t ->
  ?read_deadline:float ->
  ?write_deadline:float ->
  unit ->
  t * t
(** An anonymous [socketpair] — the default coordinator/worker link. *)

val listen : path:string -> Unix.file_descr
(** Bind and listen on a named Unix socket, unlinking a stale file first. *)

val listen_tcp : ?backlog:int -> host:string -> port:int -> unit -> Unix.file_descr * int
(** Bind and listen on a TCP address ([SO_REUSEADDR] set, backlog default
    16). [host] is a dotted quad or resolvable name; [port] 0 asks the
    kernel for an ephemeral port. Returns the listening descriptor and
    the actually bound port. The descriptor feeds the same {!accept} as
    the Unix-socket listener — deadline semantics are identical. *)

val accept :
  ?metrics:Dstress_obs.Obs.Metrics.t ->
  ?log:Dstress_obs.Log.t ->
  ?read_deadline:float ->
  ?write_deadline:float ->
  ?retain:bool ->
  deadline:float ->
  Unix.file_descr ->
  t
(** Accept one connection within [deadline] seconds — address-family
    agnostic (Unix-socket and TCP listeners alike; an accepted TCP
    connection gets [TCP_NODELAY]). *)

val connect :
  ?metrics:Dstress_obs.Obs.Metrics.t ->
  ?log:Dstress_obs.Log.t ->
  ?read_deadline:float ->
  ?write_deadline:float ->
  ?retain:bool ->
  ?attempts:int ->
  ?backoff:float ->
  ?jitter_seed:int ->
  path:string ->
  unit ->
  t
(** Connect to a named socket with bounded retry: up to [attempts]
    (default 8) tries, sleeping [backoff * 2^i * (0.5 + u_i)] between
    them ([u_i] uniform in [0,1) from a SplitMix stream seeded by
    [jitter_seed], so two workers hammering the same coordinator desync).
    Default [backoff] 10 ms. Exhausted attempts raise [Error (Timeout _)].
    Sleeps are recorded under [transport.backoff_sleep_s]. *)

val connect_tcp :
  ?metrics:Dstress_obs.Obs.Metrics.t ->
  ?log:Dstress_obs.Log.t ->
  ?read_deadline:float ->
  ?write_deadline:float ->
  ?retain:bool ->
  ?attempts:int ->
  ?backoff:float ->
  ?jitter_seed:int ->
  host:string ->
  port:int ->
  unit ->
  t
(** {!connect} over TCP: the same bounded jittered-exponential-backoff
    retry loop and the same [transport.connect_*] / [transport.backoff_*]
    counters, with the transient-errno set widened to the TCP ones
    ([ECONNREFUSED], [ETIMEDOUT], [EHOSTUNREACH], [ENETUNREACH]).
    [TCP_NODELAY] is set on the connected socket. *)

val set_fault_hook : t -> (kind:int -> seq:int64 -> action) -> unit
(** Installed hook is consulted before every frame write. *)

val send : t -> kind:int -> epoch:int -> ?trace:int64 -> bytes -> int64
(** Frame and write the payload within the write deadline; returns the
    assigned sequence number. [trace] (default [0L]) is carried verbatim
    in the frame header and delivered in {!recv}'s [frame.trace]. *)

val recv : t -> timeout:float -> frame option
(** Next fresh frame within [timeout] seconds, or [None]. [timeout] 0
    polls: a frame already readable is returned. Duplicate
    sequence numbers (<= the highest already delivered) are dropped and
    counted under [transport.dup_dropped]; ack frames are consumed
    internally. A CRC or framing violation raises [Error (Integrity _)]. *)

val ack : t -> int64 -> unit
(** Tell the peer every frame up to [seq] arrived; a retaining peer prunes
    its replay buffer. *)

val retransmit_from : t -> int64 -> int
(** Re-send every retained frame with seq > the given ack point (in seq
    order, original seq numbers — the receiver's dedup makes replay
    idempotent). Returns the number of frames retransmitted and counts
    them under [transport.retransmits]. Requires [retain]. *)

val takeover : old:t -> t -> unit
(** Carry a dead connection's sequencing state — next send seq, highest
    delivered seq, retained unacked frames — onto a freshly connected
    replacement, so {!retransmit_from} can replay across a reconnect and
    the peer's dedup window stays valid. The old connection's retain
    buffer is drained into the new one. *)

val close : t -> unit
(** Idempotent. *)

val fd : t -> Unix.file_descr
val metrics : t -> Dstress_obs.Obs.Metrics.t
val last_delivered : t -> int64
(** Highest sequence number delivered by {!recv} (-1 initially). *)

(** Well-known frame kinds shared by the {!Distributed} pool and the
    [dstress transport] CLI tool. The transport itself interprets only
    [ack]. *)
module Kind : sig
  val ack : int
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

  val name : int -> string
end
