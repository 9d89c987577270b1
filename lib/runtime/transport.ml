module Crc32 = Dstress_util.Crc32
module Prng = Dstress_util.Prng
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
  trace : int64;  (* request trace ID; 0L = none *)
  payload : bytes;
}

let magic = "DSTR"
let version = 3
let header_bytes = 24
let max_payload = 1 lsl 28 (* 256 MB: anything bigger is a framing bug *)

(* Seconds any one frame may take to read or write once it has started,
   so a peer that stalls mid-frame costs bounded time, never a hang. *)
let io_deadline = 10.0

type t = {
  fdesc : Unix.file_descr;
  m : Metrics.t;
  log : Log.t;
  mutable closed : bool;
}

let fd t = t.fdesc
let metrics t = t.m

let of_fd ?(metrics = Metrics.create ()) ?(log = Log.nop) fdesc =
  Unix.set_nonblock fdesc;
  { fdesc; m = metrics; log; closed = false }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fdesc with Unix.Unix_error _ -> ()
  end

let pair ?metrics ?log () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (of_fd ?metrics ?log a, of_fd ?metrics ?log b)

let close_quietly fdesc = try Unix.close fdesc with Unix.Unix_error _ -> ()

(* Only a socket nobody listens on may be unlinked: connect refuses.
   The probe is non-blocking, so a live listener with a full backlog
   (EAGAIN) counts as live instead of stalling us. *)
let stale_socket path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> close_quietly probe)
        (fun () ->
          Unix.set_nonblock probe;
          match Unix.connect probe (Unix.ADDR_UNIX path) with
          | () -> false
          | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> true
          | exception Unix.Unix_error _ -> false)
  | _ | (exception Unix.Unix_error _) -> false

let listen ~path =
  if stale_socket path then (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fdesc = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fdesc (Unix.ADDR_UNIX path);
     Unix.listen fdesc 16
   with e ->
     close_quietly fdesc;
     raise e);
  fdesc

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

let listen_tcp ~host ~port () =
  let addr = resolve_inet host in
  let fdesc = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fdesc Unix.SO_REUSEADDR true;
     Unix.bind fdesc (Unix.ADDR_INET (addr, port));
     Unix.listen fdesc 16
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

let accept ?metrics ?log ~deadline lfd =
  let until = Unix.gettimeofday () +. deadline in
  let rec wait () =
    let remaining = until -. Unix.gettimeofday () in
    if remaining <= 0.0 then raise (Error (Timeout "accept"));
    match select_r [ lfd ] remaining with [] -> wait () | _ -> ()
  in
  wait ();
  let fdesc, _ = Unix.accept lfd in
  set_nodelay_if_inet fdesc;
  of_fd ?metrics ?log fdesc

(* One bounded-retry connect loop for both address families; only the
   socket domain, target address and the set of transient errnos differ.
   Jittered exponential backoff: base * 2^i * (0.5 + u). *)
let connect_retry ~metrics ?(log = Log.nop) ~attempts ~backoff ~domain ~addr ~transient
    ~describe () =
  let prng = Prng.create (Int64.of_int (Hashtbl.hash ("transport-jitter", 0))) in
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
        of_fd ~metrics ~log fdesc
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

let connect ?(metrics = Metrics.create ()) ?log ?(attempts = 8) ?(backoff = 0.01) ~path () =
  connect_retry ~metrics ?log ~attempts ~backoff ~domain:Unix.PF_UNIX
    ~addr:(Unix.ADDR_UNIX path)
    ~transient:(function
      | Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN | Unix.EINTR -> true
      | _ -> false)
    ~describe:path ()

let connect_tcp ?(metrics = Metrics.create ()) ?log ?(attempts = 8) ?(backoff = 0.01) ~host
    ~port () =
  let addr = resolve_inet host in
  connect_retry ~metrics ?log ~attempts ~backoff ~domain:Unix.PF_INET
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
  let deadline = now () +. io_deadline in
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

let encode_frame ~kind ?(trace = 0L) payload =
  let len = Bytes.length payload in
  let b = Bytes.create (header_bytes + len) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint8 b 4 version;
  Bytes.set_uint8 b 5 kind;
  Bytes.set_uint16_le b 6 0;
  Bytes.set_int64_le b 8 trace;
  Bytes.set_int32_le b 16 (Int32.of_int len);
  Bytes.set_int32_le b 20 (Crc32.digest payload);
  Bytes.blit payload 0 b header_bytes len;
  b

let send t ~kind ?trace payload =
  if t.closed then raise (Error (Closed "send on closed connection"));
  let b = encode_frame ~kind ?trace payload in
  write_all t b ~what:"send";
  Metrics.incr t.m "transport.frames_sent";
  Metrics.incr t.m ~by:(Bytes.length b) "transport.bytes_sent"

(* The caller bounds the wait for a frame to start; once its header
   starts arriving the per-frame read deadline takes over. A timeout of
   0 polls: a frame already readable is returned. *)
let recv t ~timeout =
  if t.closed then raise (Error (Closed "recv on closed connection"));
  match select_r [ t.fdesc ] (max timeout 0.0) with
  | [] -> None
  | _ ->
      let hdr = Bytes.create header_bytes in
      let deadline = now () +. io_deadline in
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
      let trace = Bytes.get_int64_le hdr 8 in
      let len = Int32.to_int (Bytes.get_int32_le hdr 16) in
      let crc = Bytes.get_int32_le hdr 20 in
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
      Some { kind; trace; payload }

module Kind = struct
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
end
