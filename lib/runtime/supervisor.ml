module Metrics = Dstress_obs.Obs.Metrics
module Log = Dstress_obs.Log
module Kind = Transport.Kind

type fault = Stall of float | Partition | Disconnect

type 'j slot = {
  sid : int;
  mutable pid : int;
  mutable conn : Transport.t;
  mutable det : Failure_detector.t;
  mutable running : 'j option;
  mutable trace : int64;
  mutable alive : bool;
  mutable abandoned : bool;
  mutable respawns : int;
}

type 'j event = Reply of 'j * (bytes, string) result | Lost of 'j option * string

type 'j t = {
  max_respawns_per_slot : int;
  log : Log.t;
  m : Metrics.t;
  fork_fds : unit -> Unix.file_descr list;
  serve : bytes -> (bytes, string) result;
  mutable slots : 'j slot array;
  mutable pids : int list;  (* every child forked and not yet reaped *)
}

(* Heartbeat period. At the detector's phi of 8, a worker is
   suspected after about 0.4 s of silence: long enough that a CPU-bound
   request, during which the heartbeat thread runs only at the OCaml
   thread tick (~50 ms), never trips it. *)
let heartbeat_interval = 0.05

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Task header: how wire faults reach the worker                       *)
(* ------------------------------------------------------------------ *)

(* fault (u8: 0 none, 1 stall, 2 partition, 3 disconnect) |
   stall seconds (f64) | body *)
let task_header_bytes = 9

let encode_task fault body =
  let tag, stall =
    match fault with
    | None -> (0, 0.0)
    | Some (Stall seconds) -> (1, seconds)
    | Some Partition -> (2, 0.0)
    | Some Disconnect -> (3, 0.0)
  in
  let n = Bytes.length body in
  let b = Bytes.create (task_header_bytes + n) in
  Bytes.set_uint8 b 0 tag;
  Bytes.set_int64_le b 1 (Int64.bits_of_float stall);
  Bytes.blit body 0 b task_header_bytes n;
  b

let decode_task p =
  if Bytes.length p < task_header_bytes then None
  else
    let fault =
      match Bytes.get_uint8 p 0 with
      | 1 -> Some (Stall (Int64.float_of_bits (Bytes.get_int64_le p 1)))
      | 2 -> Some Partition
      | 3 -> Some Disconnect
      | _ -> None
    in
    Some (fault, Bytes.sub p task_header_bytes (Bytes.length p - task_header_bytes))

(* ------------------------------------------------------------------ *)
(* Worker side (forked child — exits only through Unix._exit, so the   *)
(* parent's at_exit handlers never run in a child)                     *)
(* ------------------------------------------------------------------ *)

let worker_loop t conn =
  (* The heartbeat thread and the task loop share the connection for
     writes; [mu] serializes them. Holding [mu] is how a worker goes
     silent: an injected stall or partition stops every write,
     heartbeats included, which is what trips the coordinator's
     suspicion. *)
  let mu = Mutex.create () in
  let send ~kind ?trace payload =
    Mutex.protect mu (fun () -> Transport.send conn ~kind ?trace payload)
  in
  let serve_task (fr : Transport.frame) =
    let trace = fr.Transport.trace in
    let reply kind body = send ~kind ~trace body in
    match decode_task fr.Transport.payload with
    | None -> reply Kind.error (Bytes.of_string "malformed task frame")
    | Some (fault, body) -> (
        Log.debug t.log ~trace "worker task received" [];
        (match fault with
        | None -> ()
        | Some (Stall seconds) -> Mutex.protect mu (fun () -> Thread.delay seconds)
        | Some Partition ->
            (* Silent until the coordinator kills this process, or hangs
               up on it: it sends nothing more to a partitioned worker. *)
            Mutex.lock mu;
            ignore (Unix.select [ Transport.fd conn ] [] [] (-1.0));
            Unix._exit 0
        | Some Disconnect ->
            Transport.close conn;
            Unix._exit 0);
        match t.serve body with
        | Ok r ->
            Log.debug t.log ~trace "worker task completed" [];
            reply Kind.result r
        | Error msg -> reply Kind.error (Bytes.of_string msg)
        | exception e ->
            (* A failed task must not take the worker down: report it and
               stay warm for the next one. *)
            let msg = Printexc.to_string e in
            Log.warn t.log ~trace "worker task failed" [ ("error", Log.Str msg) ];
            reply Kind.error (Bytes.of_string msg))
  in
  (try send ~kind:Kind.hello Bytes.empty with _ -> Unix._exit 1);
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        try
          while true do
            Thread.delay heartbeat_interval;
            send ~kind:Kind.heartbeat Bytes.empty
          done
        with _ -> ())
      ()
  in
  (try
     while true do
       match Transport.recv conn ~timeout:1.0 with
       | Some fr when fr.Transport.kind = Kind.shutdown -> Unix._exit 0
       | Some fr when fr.Transport.kind = Kind.task -> serve_task fr
       | None | Some _ -> ()
     done
   with _ -> Unix._exit 1);
  Unix._exit 0

(* ------------------------------------------------------------------ *)
(* Coordinator side                                                    *)
(* ------------------------------------------------------------------ *)

let slots t = t.slots
let idle s = s.alive && s.running = None

let live_fds t =
  Array.to_list t.slots
  |> List.filter_map (fun s -> if s.alive then Some (Transport.fd s.conn) else None)

(* Fork one worker for slot [sid] on a socketpair of its own. *)
let spawn t ~sid =
  let inherited = live_fds t @ t.fork_fds () in
  flush stdout;
  flush stderr;
  let cfd, wfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
      Transport.close_quietly cfd;
      List.iter Transport.close_quietly inherited;
      worker_loop t (Transport.of_fd ~log:t.log wfd)
  | pid ->
      Unix.close wfd;
      t.pids <- pid :: t.pids;
      Log.info t.log "worker spawned" [ ("worker", Log.Int sid); ("pid", Log.Int pid) ];
      let det = Failure_detector.create ~expected_interval:heartbeat_interval in
      Failure_detector.start det ~now:(now ());
      (pid, Transport.of_fd ~metrics:t.m ~log:t.log cfd, det)

let create ~workers ~max_respawns_per_slot ?(log = Log.nop) ~metrics
    ?(fork_fds = fun () -> []) ~serve () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let t =
    { max_respawns_per_slot; log; m = metrics; fork_fds; serve; slots = [||]; pids = [] }
  in
  for sid = 0 to workers - 1 do
    let pid, conn, det = spawn t ~sid in
    let s =
      {
        sid;
        pid;
        conn;
        det;
        running = None;
        trace = 0L;
        alive = true;
        abandoned = false;
        respawns = 0;
      }
    in
    t.slots <- Array.append t.slots [| s |]
  done;
  t

let respawn t s =
  s.respawns <- s.respawns + 1;
  Metrics.incr t.m "pool.respawns";
  if s.respawns > t.max_respawns_per_slot then begin
    s.abandoned <- true;
    Metrics.incr t.m "pool.slots_abandoned";
    Log.error t.log "worker slot abandoned"
      [ ("worker", Log.Int s.sid); ("respawns", Log.Int s.respawns) ]
  end
  else begin
    let pid, conn, det = spawn t ~sid:s.sid in
    s.pid <- pid;
    s.conn <- conn;
    s.det <- det;
    s.alive <- true
  end

(* Fail-stop: whatever the reason, a lost worker's connection is closed
   and the worker is killed, so it can never reply or keep running. The
   pid is signalled only while it is still unreaped, so a pid the kernel
   has handed to another process is never hit; a later [step] reaps it. *)
let lose t s ~metric ~reason =
  Metrics.incr t.m metric;
  Log.warn t.log ~trace:s.trace "worker lost"
    [ ("worker", Log.Int s.sid); ("pid", Log.Int s.pid); ("reason", Log.Str reason) ];
  Transport.close s.conn;
  if List.mem s.pid t.pids then (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  s.alive <- false;
  let job = s.running in
  s.running <- None;
  s.trace <- 0L;
  respawn t s;
  Lost (job, reason)

let dispatch t s ?(trace = 0L) ?fault job payload =
  if not (idle s) then invalid_arg "Supervisor.dispatch: slot is not idle";
  s.running <- Some job;
  s.trace <- trace;
  match Transport.send s.conn ~kind:Kind.task ~trace (encode_task fault payload) with
  | () -> None
  | exception Transport.Error _ ->
      Some
        (lose t s ~metric:"pool.worker_disconnects"
           ~reason:"worker connection died at dispatch")

let is_reply (fr : Transport.frame) =
  fr.Transport.kind = Kind.result || fr.Transport.kind = Kind.error

(* Poll, never wait: the caller's select already proved readability,
   and a blocking drain would tax every reply with a full timeout spent
   discovering the stream is empty. *)
let drain_live t s emit =
  let rec go () =
    if s.alive then
      match Transport.recv s.conn ~timeout:0.0 with
      | None -> ()
      | Some fr ->
          Failure_detector.observe s.det ~now:(now ());
          (match s.running with
          | Some job when is_reply fr ->
              s.running <- None;
              s.trace <- 0L;
              let payload = fr.Transport.payload in
              emit
                (Reply
                   ( job,
                     if fr.Transport.kind = Kind.result then Ok payload
                     else begin
                       Metrics.incr t.m "pool.task_errors";
                       Error (Bytes.to_string payload)
                     end ))
          | _ -> ());
          go ()
      | exception Transport.Error e ->
          let metric, reason =
            match e with
            | Transport.Closed _ -> ("pool.worker_disconnects", "worker connection closed")
            | Transport.Integrity _ ->
                ("pool.integrity_failures", "worker stream integrity failure")
            | Transport.Timeout _ -> ("pool.io_timeouts", "worker io timeout")
          in
          emit (lose t s ~metric ~reason)
  in
  go ()

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

let step t ~timeout =
  let events = ref [] in
  let emit e = events := e :: !events in
  let fds = live_fds t in
  let readable = if fds = [] then [] else Transport.select_r fds timeout in
  Array.iter
    (fun s -> if s.alive && List.mem (Transport.fd s.conn) readable then drain_live t s emit)
    t.slots;
  (* A slot that stopped writing is treated like a crashed node. *)
  Array.iter
    (fun s ->
      if s.alive && Failure_detector.suspected s.det ~now:(now ()) then
        emit
          (lose t s ~metric:"pool.suspicions"
             ~reason:"worker suspected by heartbeat detector"))
    t.slots;
  t.pids <- List.filter (fun pid -> not (exited pid)) t.pids;
  List.rev !events

let shutdown t =
  let in_flight =
    Array.to_list t.slots
    |> List.filter_map (fun s ->
           let job = s.running in
           s.running <- None;
           s.trace <- 0L;
           job)
  in
  Array.iter
    (fun s ->
      if s.alive then begin
        (try Transport.send s.conn ~kind:Kind.shutdown Bytes.empty with _ -> ());
        Transport.close s.conn
      end)
    t.slots;
  let grace = now () +. 2.0 in
  let rec reap = function
    | [] -> ()
    | pids when now () > grace ->
        List.iter
          (fun pid ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
          pids
    | pids ->
        let still = List.filter (fun pid -> not (exited pid)) pids in
        if still <> [] then Unix.sleepf 0.01;
        reap still
  in
  reap t.pids;
  t.pids <- [];
  in_flight
