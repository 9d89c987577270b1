module Crc32 = Dstress_util.Crc32
module Prng = Dstress_util.Prng
module Fault = Dstress_faults.Fault
module Metrics = Dstress_obs.Obs.Metrics
module Log = Dstress_obs.Log

type error = Timeout of string | Closed of string | Integrity of string

exception Error of error

let error_message = function
  | Timeout m -> "timeout: " ^ m
  | Closed m -> "closed: " ^ m
  | Integrity m -> "integrity: " ^ m

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Transport.Error (" ^ error_message e ^ ")")
    | _ -> None)

type frame = {
  kind : int;
  epoch : int;
  seq : int64;
  trace : int64;  (* request trace ID; 0L = none *)
  payload : bytes;
}

type action = Pass | Stall of float | Sever

let magic = "DSTR"
let version = 2
let header_bytes = 36
let max_payload = 1 lsl 28 (* 256 MB: anything bigger is a framing bug *)

type t = {
  fdesc : Unix.file_descr;
  read_deadline : float;
  write_deadline : float;
  m : Metrics.t;
  log : Log.t;
  retain : bool;
  mutable next_seq : int64;
  mutable delivered : int64; (* highest seq handed to the application *)
  mutable sent : (int64 * (int * int * int64 * bytes)) list; (* retained, newest first *)
  mutable hook : (kind:int -> seq:int64 -> action) option;
  mutable closed : bool;
}

let fd t = t.fdesc
let metrics t = t.m
let last_delivered t = t.delivered

let of_fd ?(metrics = Metrics.create ()) ?(log = Log.nop) ?(read_deadline = 10.0)
    ?(write_deadline = 10.0) ?(retain = false) fdesc =
  Unix.set_nonblock fdesc;
  {
    fdesc;
    read_deadline;
    write_deadline;
    m = metrics;
    log;
    retain;
    next_seq = 0L;
    delivered = -1L;
    sent = [];
    hook = None;
    closed = false;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fdesc with Unix.Unix_error _ -> ()
  end

let set_fault_hook t h = t.hook <- Some h

let pair ?metrics ?log ?read_deadline ?write_deadline () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (of_fd ?metrics ?log ?read_deadline ?write_deadline a,
   of_fd ?metrics ?log ?read_deadline ?write_deadline b)

let listen ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fdesc = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fdesc (Unix.ADDR_UNIX path);
  Unix.listen fdesc 16;
  fdesc

let close_quietly fdesc = try Unix.close fdesc with Unix.Unix_error _ -> ()

(* Nagle batches our small frames behind earlier unacked data; every
   framed message here is a complete request/response, so latency wins. *)
let set_nodelay_if_inet fdesc =
  match Unix.getsockname fdesc with
  | Unix.ADDR_INET _ -> ( try Unix.setsockopt fdesc Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
  | _ | (exception Unix.Unix_error _) -> ()

let resolve_inet host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list; _ } when Array.length h_addr_list > 0 -> h_addr_list.(0)
      | _ | (exception Not_found) ->
          raise (Error (Closed (Printf.sprintf "resolve %s: unknown host" host))))

let listen_tcp ?(backlog = 16) ~host ~port () =
  let addr = resolve_inet host in
  let fdesc = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fdesc Unix.SO_REUSEADDR true;
     Unix.bind fdesc (Unix.ADDR_INET (addr, port));
     Unix.listen fdesc backlog
   with e ->
     close_quietly fdesc;
     raise e);
  let bound =
    match Unix.getsockname fdesc with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  (fdesc, bound)

(* A signal (e.g. a daemon's SIGTERM drain handler) interrupts select
   with EINTR; treat it as an empty readiness set and let the caller's
   deadline arithmetic decide whether to keep waiting. *)
let select_r fds timeout =
  match Unix.select fds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (EINTR, _, _) -> []

let select_w fds timeout =
  match Unix.select [] fds [] timeout with
  | _, w, _ -> w
  | exception Unix.Unix_error (EINTR, _, _) -> []

let accept ?metrics ?log ?read_deadline ?write_deadline ?retain ~deadline lfd =
  let until = Unix.gettimeofday () +. deadline in
  let rec wait () =
    let remaining = until -. Unix.gettimeofday () in
    if remaining <= 0.0 then raise (Error (Timeout "accept"));
    match select_r [ lfd ] remaining with [] -> wait () | _ -> ()
  in
  wait ();
  let fdesc, _ = Unix.accept lfd in
  set_nodelay_if_inet fdesc;
  of_fd ?metrics ?log ?read_deadline ?write_deadline ?retain fdesc

(* One bounded-retry connect loop for both address families; only the
   socket domain, target address and the set of transient errnos differ.
   Jittered exponential backoff: base * 2^i * (0.5 + u). *)
let connect_retry ~metrics ?(log = Log.nop) ?read_deadline ?write_deadline ?retain
    ~attempts ~backoff ~jitter_seed ~domain ~addr ~transient ~describe () =
  let prng = Prng.create (Int64.of_int (Hashtbl.hash ("transport-jitter", jitter_seed))) in
  let rec go i =
    Metrics.incr metrics "transport.connect_attempts";
    let fdesc = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fdesc addr with
    | () ->
        if i > 0 then begin
          Metrics.incr metrics "transport.reconnects";
          Log.info log "transport connected after retries"
            [ ("target", Log.Str describe); ("attempts", Log.Int (i + 1)) ]
        end;
        set_nodelay_if_inet fdesc;
        of_fd ~metrics ~log ?read_deadline ?write_deadline ?retain fdesc
    | exception Unix.Unix_error (e, _, _) when transient e ->
        close_quietly fdesc;
        Metrics.incr metrics "transport.connect_failures";
        Log.warn log "transport connect failed"
          [
            ("target", Log.Str describe);
            ("attempt", Log.Int (i + 1));
            ("error", Log.Str (Unix.error_message e));
          ];
        if i + 1 >= attempts then
          raise (Error (Timeout (Printf.sprintf "connect %s: %d attempts" describe attempts)));
        let sleep = backoff *. (2.0 ** float_of_int i) *. (0.5 +. Prng.float prng) in
        Metrics.incr metrics "transport.backoff_sleeps";
        Metrics.add metrics "transport.backoff_sleep_s" sleep;
        Unix.sleepf sleep;
        go (i + 1)
    | exception Unix.Unix_error (e, _, _) ->
        close_quietly fdesc;
        raise (Error (Closed (Printf.sprintf "connect %s: %s" describe (Unix.error_message e))))
  in
  go 0

let connect ?(metrics = Metrics.create ()) ?log ?read_deadline ?write_deadline ?retain
    ?(attempts = 8) ?(backoff = 0.01) ?(jitter_seed = 0) ~path () =
  connect_retry ~metrics ?log ?read_deadline ?write_deadline ?retain ~attempts ~backoff
    ~jitter_seed ~domain:Unix.PF_UNIX ~addr:(Unix.ADDR_UNIX path)
    ~transient:(function
      | Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN | Unix.EINTR -> true
      | _ -> false)
    ~describe:path ()

let connect_tcp ?(metrics = Metrics.create ()) ?log ?read_deadline ?write_deadline
    ?retain ?(attempts = 8) ?(backoff = 0.01) ?(jitter_seed = 0) ~host ~port () =
  let addr = resolve_inet host in
  connect_retry ~metrics ?log ?read_deadline ?write_deadline ?retain ~attempts ~backoff
    ~jitter_seed ~domain:Unix.PF_INET
    ~addr:(Unix.ADDR_INET (addr, port))
    ~transient:(function
      | Unix.ECONNREFUSED | Unix.ETIMEDOUT | Unix.EHOSTUNREACH | Unix.ENETUNREACH
      | Unix.EAGAIN | Unix.EINTR ->
          true
      | _ -> false)
    ~describe:(Printf.sprintf "%s:%d" host port)
    ()

(* ------------------------------------------------------------------ *)
(* Deadline-bounded exact reads and writes on a non-blocking socket     *)
(* ------------------------------------------------------------------ *)

let now () = Unix.gettimeofday ()

let read_exact t buf len ~deadline ~what =
  let got = ref 0 in
  while !got < len do
    let remaining = deadline -. now () in
    if remaining <= 0.0 then begin
      Metrics.incr t.m "transport.timeouts";
      Log.warn t.log "transport read timeout" [ ("what", Log.Str what) ];
      raise (Error (Timeout what))
    end;
    match select_r [ t.fdesc ] remaining with
    | [] -> ()
    | _ -> (
        match Unix.read t.fdesc buf !got (len - !got) with
        | 0 -> raise (Error (Closed (what ^ ": EOF")))
        | n -> got := !got + n
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
        | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
            raise (Error (Closed (what ^ ": reset"))))
  done

let write_all t buf ~what =
  let deadline = now () +. t.write_deadline in
  let len = Bytes.length buf in
  let sent = ref 0 in
  while !sent < len do
    let remaining = deadline -. now () in
    if remaining <= 0.0 then begin
      Metrics.incr t.m "transport.timeouts";
      Log.warn t.log "transport write timeout" [ ("what", Log.Str what) ];
      raise (Error (Timeout what))
    end;
    match select_w [ t.fdesc ] remaining with
    | [] -> ()
    | _ -> (
        match Unix.write t.fdesc buf !sent (len - !sent) with
        | n -> sent := !sent + n
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
        | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
            raise (Error (Closed (what ^ ": reset"))))
  done

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let encode_frame ~kind ~epoch ~seq ?(trace = 0L) payload =
  let len = Bytes.length payload in
  let b = Bytes.create (header_bytes + len) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint8 b 4 version;
  Bytes.set_uint8 b 5 kind;
  Bytes.set_uint16_le b 6 0;
  Bytes.set_int32_le b 8 (Int32.of_int epoch);
  Bytes.set_int64_le b 12 seq;
  Bytes.set_int64_le b 20 trace;
  Bytes.set_int32_le b 28 (Int32.of_int len);
  Bytes.set_int32_le b 32 (Crc32.digest payload);
  Bytes.blit payload 0 b header_bytes len;
  b

let write_frame t ~kind ~epoch ~seq ?trace payload =
  let b = encode_frame ~kind ~epoch ~seq ?trace payload in
  write_all t b ~what:"send";
  Metrics.incr t.m "transport.frames_sent";
  Metrics.incr t.m ~by:(Bytes.length b) "transport.bytes_sent"

let send t ~kind ~epoch ?(trace = 0L) payload =
  if t.closed then raise (Error (Closed "send on closed connection"));
  let seq = t.next_seq in
  t.next_seq <- Int64.add seq 1L;
  if t.retain then
    t.sent <- (seq, (kind, epoch, trace, Bytes.copy payload)) :: t.sent;
  (match t.hook with
  | None -> ()
  | Some h -> (
      match h ~kind ~seq with
      | Pass -> ()
      | Stall s ->
          Metrics.incr t.m "transport.stalls_injected";
          (* Fault.delay_ticks is the one simulated-time rounding rule;
             recording the stall's tick-equivalent here keeps wall-domain
             bookkeeping comparable with the engine's recovery charges. *)
          Metrics.incr t.m ~by:(Fault.delay_ticks s) "transport.stall_ticks";
          Unix.sleepf s
      | Sever ->
          Metrics.incr t.m "transport.severs_injected";
          close t;
          raise (Error (Closed "injected sever"))));
  write_frame t ~kind ~epoch ~seq ~trace payload;
  seq

(* One raw frame off the wire, however long since the last one — the
   caller bounds the wait; once the header starts arriving the per-frame
   read deadline takes over. *)
let read_frame t ~first_timeout =
  match select_r [ t.fdesc ] first_timeout with
  | [] -> None
  | _ ->
      let hdr = Bytes.create header_bytes in
      let deadline = now () +. t.read_deadline in
      read_exact t hdr header_bytes ~deadline ~what:"recv header";
      if Bytes.sub_string hdr 0 4 <> magic then begin
        Metrics.incr t.m "transport.framing_errors";
        Log.error t.log "transport framing error" [ ("what", Log.Str "bad magic") ];
        raise (Error (Integrity "bad magic"))
      end;
      if Bytes.get_uint8 hdr 4 <> version then begin
        Metrics.incr t.m "transport.framing_errors";
        Log.error t.log "transport framing error"
          [
            ("what", Log.Str "bad version");
            ("got", Log.Int (Bytes.get_uint8 hdr 4));
            ("want", Log.Int version);
          ];
        raise (Error (Integrity "bad version"))
      end;
      let kind = Bytes.get_uint8 hdr 5 in
      let epoch = Int32.to_int (Bytes.get_int32_le hdr 8) in
      let seq = Bytes.get_int64_le hdr 12 in
      let trace = Bytes.get_int64_le hdr 20 in
      let len = Int32.to_int (Bytes.get_int32_le hdr 28) in
      let crc = Bytes.get_int32_le hdr 32 in
      if len < 0 || len > max_payload then begin
        Metrics.incr t.m "transport.framing_errors";
        Log.error t.log "transport framing error"
          [ ("what", Log.Str "bad length"); ("len", Log.Int len) ];
        raise (Error (Integrity (Printf.sprintf "frame length %d" len)))
      end;
      let payload = Bytes.create len in
      read_exact t payload len ~deadline ~what:"recv payload";
      if Crc32.digest payload <> crc then begin
        Metrics.incr t.m "transport.crc_failures";
        Log.error t.log "transport crc mismatch" ~trace
          [ ("kind", Log.Str (Printf.sprintf "%d" kind)); ("len", Log.Int len) ];
        raise (Error (Integrity "crc mismatch"))
      end;
      Metrics.incr t.m "transport.frames_received";
      Metrics.incr t.m ~by:(header_bytes + len) "transport.bytes_received";
      Some { kind; epoch; seq; trace; payload }

let kind_ack = 0

let handle_ack t payload =
  if Bytes.length payload = 8 then begin
    let upto = Bytes.get_int64_le payload 0 in
    Metrics.incr t.m "transport.acks_received";
    t.sent <- List.filter (fun (s, _) -> Int64.compare s upto > 0) t.sent
  end

let recv t ~timeout =
  if t.closed then raise (Error (Closed "recv on closed connection"));
  let deadline = now () +. timeout in
  (* The first read is always attempted: with [~timeout:0.0] the clock
     has already passed the deadline, yet a ready frame must come back. *)
  let rec loop ~first =
    let remaining = deadline -. now () in
    if remaining < 0.0 && not first then None
    else
      match read_frame t ~first_timeout:(max remaining 0.0) with
      | None -> None
      | Some f when f.kind = kind_ack ->
          handle_ack t f.payload;
          loop ~first:false
      | Some f when Int64.compare f.seq t.delivered <= 0 ->
          (* Idempotent dedup: a retransmitted frame that already made it
             through is acknowledged by silence, never re-applied. *)
          Metrics.incr t.m "transport.dup_dropped";
          Log.debug t.log "transport duplicate dropped" ~trace:f.trace
            [ ("seq", Log.Int (Int64.to_int f.seq)) ];
          loop ~first:false
      | Some f ->
          t.delivered <- f.seq;
          Some f
  in
  loop ~first:true

let ack t upto =
  let payload = Bytes.create 8 in
  Bytes.set_int64_le payload 0 upto;
  Metrics.incr t.m "transport.acks_sent";
  (* Acks bypass the retained-frame buffer and the fault hook: they are
     transport housekeeping, not application traffic. *)
  let seq = t.next_seq in
  t.next_seq <- Int64.add seq 1L;
  write_frame t ~kind:kind_ack ~epoch:0 ~seq payload

let takeover ~old t =
  t.next_seq <- old.next_seq;
  t.delivered <- old.delivered;
  t.sent <- old.sent;
  old.sent <- [];
  Metrics.incr t.m "transport.reconnects"

let retransmit_from t upto =
  if not t.retain then invalid_arg "Transport.retransmit_from: connection does not retain";
  let pending =
    List.filter (fun (s, _) -> Int64.compare s upto > 0) t.sent |> List.rev
  in
  List.iter
    (fun (seq, (kind, epoch, trace, payload)) ->
      Metrics.incr t.m "transport.retransmits";
      write_frame t ~kind ~epoch ~seq ~trace payload)
    pending;
  List.length pending

module Kind = struct
  let ack = kind_ack
  let hello = 1
  let heartbeat = 2
  let task = 3
  let result = 4
  let error = 5
  let shutdown = 6
  let ping = 7
  let echo = 8
  let request = 9
  let response = 10
  let stats = 11
  let stats_reply = 12

  let name = function
    | 0 -> "ack"
    | 1 -> "hello"
    | 2 -> "heartbeat"
    | 3 -> "task"
    | 4 -> "result"
    | 5 -> "error"
    | 6 -> "shutdown"
    | 7 -> "ping"
    | 8 -> "echo"
    | 9 -> "request"
    | 10 -> "response"
    | 11 -> "stats"
    | 12 -> "stats_reply"
    | k -> "kind:" ^ string_of_int k
end
