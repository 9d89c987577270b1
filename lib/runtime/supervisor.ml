module Fault = Dstress_faults.Fault
module Metrics = Dstress_obs.Obs.Metrics
module Log = Dstress_obs.Log
module Kind = Transport.Kind

type 'j slot = {
  sid : int;
  mutable pid : int;
  mutable conn : Transport.t;
  mutable epoch : int;
  mutable det : Failure_detector.t;
  mutable running : 'j option;
  mutable trace : int64;
  mutable alive : bool;
  mutable abandoned : bool;
  mutable respawns : int;
}

type 'j event = Reply of 'j * (bytes, string) result | Lost of 'j option * string

type 'j t = {
  heartbeat_interval : float;
  phi : float;
  io_deadline : float;
  max_respawns_per_slot : int;
  log : Log.t;
  m : Metrics.t;
  fork_fds : unit -> Unix.file_descr list;
  serve : bytes -> (bytes, string) result;
  mutable slots : 'j slot array;
  mutable fenced : Transport.t list;
  mutable pids : int list;  (* every child forked and not yet reaped *)
  mutable next_epoch : int;
}

let now () = Unix.gettimeofday ()
let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Task header: how wire faults reach the worker                       *)
(* ------------------------------------------------------------------ *)

(* stall seconds (f64) | mute seconds (f64) | disconnect (u8) | body *)
let task_header_bytes = 17

let encode_task ~stall ~mute ~disconnect body =
  let n = Bytes.length body in
  let b = Bytes.create (task_header_bytes + n) in
  Bytes.set_int64_le b 0 (Int64.bits_of_float stall);
  Bytes.set_int64_le b 8 (Int64.bits_of_float mute);
  Bytes.set_uint8 b 16 (Bool.to_int disconnect);
  Bytes.blit body 0 b task_header_bytes n;
  b

let float_at b off = Int64.float_of_bits (Bytes.get_int64_le b off)

(* ------------------------------------------------------------------ *)
(* Worker side (forked child — exits only through Unix._exit, so the   *)
(* parent's at_exit handlers never run in a child)                     *)
(* ------------------------------------------------------------------ *)

let worker_loop t conn ~epoch =
  (* The heartbeat thread and the task loop share the connection for
     writes; [mu] serializes them. Holding [mu] is how a worker goes
     silent: an injected stall or mute stops every write, heartbeats
     included, which is what trips the coordinator's suspicion. *)
  let mu = Mutex.create () in
  let send ~kind ~epoch ?trace payload =
    Mutex.protect mu (fun () -> ignore (Transport.send conn ~kind ~epoch ?trace payload))
  in
  (* A muted worker reads and drops everything (so the socket never
     backpressures) until the mute ends or the coordinator hangs up, then
     exits: a slot its detector somehow missed is still lost, by EOF. *)
  let mute seconds =
    Mutex.lock mu;
    let until = now () +. seconds in
    let rec drop () =
      let left = until -. now () in
      if left > 0.0 then begin
        ignore (Transport.recv conn ~timeout:left);
        drop ()
      end
    in
    (try drop () with Transport.Error _ -> ());
    Unix._exit 0
  in
  let serve_task (fr : Transport.frame) =
    let p = fr.Transport.payload and trace = fr.Transport.trace in
    let reply kind body = send ~kind ~epoch:fr.Transport.epoch ~trace body in
    if Bytes.length p < task_header_bytes then
      reply Kind.error (Bytes.of_string "malformed task frame")
    else begin
      Log.debug t.log ~trace "worker task received" [];
      let stall = float_at p 0 and muted = float_at p 8 in
      if muted > 0.0 then mute muted
      else begin
        if stall > 0.0 then Mutex.protect mu (fun () -> Thread.delay stall);
        if Bytes.get_uint8 p 16 <> 0 then begin
          Transport.close conn;
          Unix._exit 0
        end;
        let body = Bytes.sub p task_header_bytes (Bytes.length p - task_header_bytes) in
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
            reply Kind.error (Bytes.of_string msg)
      end
    end
  in
  (try send ~kind:Kind.hello ~epoch Bytes.empty with _ -> Unix._exit 1);
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        try
          while true do
            Thread.delay t.heartbeat_interval;
            send ~kind:Kind.heartbeat ~epoch Bytes.empty
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

(* Fork one worker for slot [sid] under a fresh epoch. *)
let spawn t ~sid =
  let epoch = t.next_epoch in
  t.next_epoch <- epoch + 1;
  let inherited = live_fds t @ List.map Transport.fd t.fenced @ t.fork_fds () in
  flush stdout;
  flush stderr;
  let cfd, wfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
      close_quietly cfd;
      List.iter close_quietly inherited;
      worker_loop t ~epoch
        (Transport.of_fd ~log:t.log ~read_deadline:t.io_deadline
           ~write_deadline:t.io_deadline wfd)
  | pid ->
      Unix.close wfd;
      t.pids <- pid :: t.pids;
      Log.info t.log "worker spawned"
        [ ("worker", Log.Int sid); ("pid", Log.Int pid); ("epoch", Log.Int epoch) ];
      let det = Failure_detector.create ~phi:t.phi ~expected_interval:t.heartbeat_interval () in
      Failure_detector.start det ~now:(now ());
      let conn =
        Transport.of_fd ~metrics:t.m ~log:t.log ~read_deadline:t.io_deadline
          ~write_deadline:t.io_deadline cfd
      in
      (pid, conn, epoch, det)

let create ~workers ~heartbeat_interval ~phi ~io_deadline ~max_respawns_per_slot
    ?(log = Log.nop) ~metrics ?(fork_fds = fun () -> []) ~serve () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let t =
    {
      heartbeat_interval;
      phi;
      io_deadline;
      max_respawns_per_slot;
      log;
      m = metrics;
      fork_fds;
      serve;
      slots = [||];
      fenced = [];
      pids = [];
      next_epoch = 0;
    }
  in
  for sid = 0 to workers - 1 do
    let pid, conn, epoch, det = spawn t ~sid in
    let s =
      {
        sid;
        pid;
        conn;
        epoch;
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
    let pid, conn, epoch, det = spawn t ~sid:s.sid in
    s.pid <- pid;
    s.conn <- conn;
    s.epoch <- epoch;
    s.det <- det;
    s.alive <- true
  end

(* A fenced connection stays readable until shutdown, so a straggler's
   late reply is observed and dropped instead of lingering in a kernel
   buffer; any other loss closes it at once. *)
let lose t s ~fence ~metric ~reason =
  Metrics.incr t.m metric;
  Log.warn t.log ~trace:s.trace "worker lost"
    [
      ("worker", Log.Int s.sid);
      ("pid", Log.Int s.pid);
      ("epoch", Log.Int s.epoch);
      ("reason", Log.Str reason);
      ("fenced", Log.Bool fence);
    ];
  if fence then t.fenced <- s.conn :: t.fenced else Transport.close s.conn;
  s.alive <- false;
  let job = s.running in
  s.running <- None;
  s.trace <- 0L;
  respawn t s;
  Lost (job, reason)

let retire t s ~metric ~reason = lose t s ~fence:true ~metric ~reason

let dispatch t s ?(trace = 0L) ~faults job payload =
  if not (idle s) then invalid_arg "Supervisor.dispatch: slot is not idle";
  let stall =
    List.find_map (function Fault.Stall_worker { seconds; _ } -> Some seconds | _ -> None) faults
    |> Option.value ~default:0.0
  in
  (* Long enough that the heartbeat detector fences the muted worker. *)
  let mute =
    if List.exists (function Fault.Partition_worker _ -> true | _ -> false) faults then
      (3.0 *. t.phi *. t.heartbeat_interval) +. 0.5
    else 0.0
  in
  let disconnect =
    List.exists (function Fault.Disconnect_worker _ -> true | _ -> false) faults
  in
  s.running <- Some job;
  s.trace <- trace;
  match
    Transport.send s.conn ~kind:Kind.task ~epoch:s.epoch ~trace
      (encode_task ~stall ~mute ~disconnect payload)
  with
  | _ -> None
  | exception Transport.Error _ ->
      Some
        (lose t s ~fence:false ~metric:"pool.worker_disconnects"
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
          (if is_reply fr then
             match s.running with
             | Some job when fr.Transport.epoch = s.epoch ->
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
             | _ -> Metrics.incr t.m "transport.fenced_frames");
          go ()
      | exception Transport.Error e ->
          let metric, reason =
            match e with
            | Transport.Closed _ -> ("pool.worker_disconnects", "worker connection closed")
            | Transport.Integrity _ ->
                ("pool.integrity_failures", "worker stream integrity failure")
            | Transport.Timeout _ -> ("pool.io_timeouts", "worker io timeout")
          in
          emit (lose t s ~fence:false ~metric ~reason)
  in
  go ()

(* Returns [true] to keep the fenced connection. *)
let drain_fenced t c =
  let rec go () =
    match Transport.recv c ~timeout:0.0 with
    | None -> true
    | Some fr ->
        if is_reply fr then Metrics.incr t.m "transport.fenced_frames";
        go ()
  in
  try go ()
  with Transport.Error _ ->
    Transport.close c;
    false

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

let step t ~timeout =
  let events = ref [] in
  let emit e = events := e :: !events in
  let fds = live_fds t @ List.map Transport.fd t.fenced in
  let readable =
    if fds = [] then []
    else
      match Unix.select fds [] [] timeout with
      | r, _, _ -> r
      | exception Unix.Unix_error (EINTR, _, _) -> []
  in
  if readable <> [] then begin
    Array.iter
      (fun s -> if s.alive && List.mem (Transport.fd s.conn) readable then drain_live t s emit)
      t.slots;
    t.fenced <-
      List.filter
        (fun c -> if List.mem (Transport.fd c) readable then drain_fenced t c else true)
        t.fenced
  end;
  (* A slot that stopped writing is treated like a crashed node. *)
  Array.iter
    (fun s ->
      if s.alive && Failure_detector.suspected s.det ~now:(now ()) then
        emit
          (lose t s ~fence:true ~metric:"pool.suspicions"
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
        (try ignore (Transport.send s.conn ~kind:Kind.shutdown ~epoch:s.epoch Bytes.empty)
         with _ -> ());
        Transport.close s.conn
      end)
    t.slots;
  List.iter Transport.close t.fenced;
  t.fenced <- [];
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
