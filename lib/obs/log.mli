(** Leveled structured logging with a bounded in-memory ring buffer.

    Wall-domain only: events carry real timestamps and must never feed
    the deterministic tick-domain exports (spans, typed metrics), which
    stay byte-identical across executors whether logging is on or off.

    Events are structured — a message plus typed key/value fields plus
    an optional request trace ID — and are only formatted when rendered,
    so the hot path is an [enabled] check, one small allocation, and a
    ring slot write.  The clock and sink are injectable for
    deterministic tests.  All operations are thread-safe. *)

type level = Error | Warn | Info | Debug

val level_name : level -> string
(** ["error" | "warn" | "info" | "debug"]. *)

type field = Str of string | Int of int | Float of float | Bool of bool

type event = {
  ts : float;  (** wall-clock seconds from the injected clock *)
  level : level;
  msg : string;
  trace : int64;  (** request trace ID; [0L] = no trace *)
  fields : (string * field) list;
}

type t

val create :
  ?level:level ->
  ?clock:(unit -> float) ->
  ?sink:(event -> unit) ->
  unit ->
  t
(** [create ()] makes a logger keeping the last 256 events at or above
    [level] (default [Info]) in a ring buffer.
    [clock] defaults to [Unix.gettimeofday]. If [sink] is given, every
    accepted event is also passed to it (exceptions are swallowed). *)

val nop : t
(** Shared disabled logger: every level is off, nothing is recorded and
    nothing is allocated. The default everywhere a logger is optional. *)

val enabled : t -> level -> bool
(** Whether events at this level are currently accepted. Check before
    building expensive field lists. *)

val log : t -> level -> ?trace:int64 -> string -> (string * field) list -> unit
(** Record one event; a no-op when the level is disabled. *)

val error : t -> ?trace:int64 -> string -> (string * field) list -> unit
val warn : t -> ?trace:int64 -> string -> (string * field) list -> unit
val info : t -> ?trace:int64 -> string -> (string * field) list -> unit
val debug : t -> ?trace:int64 -> string -> (string * field) list -> unit

val total : t -> int
(** Events accepted since creation (including any evicted from the ring). *)

val dropped : t -> int
(** Events evicted from the ring to make room for newer ones. *)

val tail : ?max:int -> t -> event list
(** Ring contents, oldest first; at most [max] newest events if given. *)

val render : event -> string
(** One logfmt-style line:
    [ts=… level=… trace=… msg="…" key=value …] (trace omitted when 0). *)

val stderr_sink : event -> unit
(** [render] to stderr — the sink used by [dstress serve]. *)
