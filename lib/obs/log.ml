(* Leveled structured logging with a bounded in-memory ring buffer.

   Wall-domain only: log events carry real timestamps and must never
   feed the deterministic tick-domain exports.  The hot path is cheap by
   construction — fields are typed values (no formatting until render),
   and a disabled level short-circuits before any allocation.  The ring
   and sink are behind a mutex because the service pool logs from both
   its serve loop and worker heartbeat threads. *)

type level = Error | Warn | Info | Debug

let severity = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

let level_name = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

type field = Str of string | Int of int | Float of float | Bool of bool

type event = {
  ts : float;
  level : level;
  msg : string;
  trace : int64;
  fields : (string * field) list;
}

type t = {
  threshold : int; (* max enabled severity; -1 disables all *)
  clock : unit -> float;
  sink : (event -> unit) option;
  ring : event option array; (* empty in [nop] *)
  mutable next : int; (* total events accepted; ring slot = next mod capacity *)
  mutable dropped : int; (* events evicted from the ring *)
  mu : Mutex.t;
}

let capacity = 256

let create ?(level = Info) ?(clock = Unix.gettimeofday) ?sink () =
  {
    threshold = severity level;
    clock;
    sink;
    ring = Array.make capacity None;
    next = 0;
    dropped = 0;
    mu = Mutex.create ();
  }

(* Shared disabled logger: [enabled] is always false, so it never takes
   the mutex and never allocates. *)
let nop =
  {
    threshold = -1;
    clock = (fun () -> 0.0);
    sink = None;
    ring = [||];
    next = 0;
    dropped = 0;
    mu = Mutex.create ();
  }

let enabled t lvl = severity lvl <= t.threshold

let log t lvl ?(trace = 0L) msg fields =
  if enabled t lvl then begin
    let ev = { ts = t.clock (); level = lvl; msg; trace; fields } in
    Mutex.lock t.mu;
    let slot = t.next mod capacity in
    if t.ring.(slot) <> None then t.dropped <- t.dropped + 1;
    t.ring.(slot) <- Some ev;
    t.next <- t.next + 1;
    (match t.sink with
    | Some f -> ( try f ev with _ -> ())
    | None -> ());
    Mutex.unlock t.mu
  end

let error t ?trace msg fields = log t Error ?trace msg fields
let warn t ?trace msg fields = log t Warn ?trace msg fields
let info t ?trace msg fields = log t Info ?trace msg fields
let debug t ?trace msg fields = log t Debug ?trace msg fields

let total t = t.next
let dropped t = t.dropped

(* Oldest-first tail of the ring. *)
let tail ?max t =
  Mutex.lock t.mu;
  let cap = Array.length t.ring in
  let out = ref [] in
  if cap > 0 then
    for k = 0 to cap - 1 do
      (* Walk slots from oldest to newest. *)
      let slot = (t.next + k) mod cap in
      match t.ring.(slot) with Some ev -> out := ev :: !out | None -> ()
    done;
  Mutex.unlock t.mu;
  let evs = List.rev !out in
  match max with
  | None -> evs
  | Some m ->
      let n = List.length evs in
      if n <= m then evs else List.filteri (fun i _ -> i >= n - m) evs

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let field_to_string = function
  | Str s -> quote s
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6g" f
  | Bool b -> string_of_bool b

(* logfmt-style single line: ts=… level=… [trace=…] msg=… k=v … *)
let render ev =
  let b = Buffer.create 96 in
  Buffer.add_string b (Printf.sprintf "ts=%.6f level=%s" ev.ts (level_name ev.level));
  if ev.trace <> 0L then
    Buffer.add_string b (Printf.sprintf " trace=%Lx" ev.trace);
  Buffer.add_string b " msg=";
  Buffer.add_string b (quote ev.msg);
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ' ';
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b (field_to_string v))
    ev.fields;
  Buffer.contents b

let stderr_sink ev =
  prerr_endline (render ev)
