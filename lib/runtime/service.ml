module Metrics = Dstress_obs.Obs.Metrics
module Sketch = Dstress_obs.Sketch
module Log = Dstress_obs.Log
module Json = Dstress_obs.Json

(* ------------------------------------------------------------------ *)
(* DSTRESS-REQ/1 codec                                                 *)
(* ------------------------------------------------------------------ *)

type workload = En | Egj

type request = {
  workload : workload;
  core : int;
  periphery : int;
  iterations : int;
  k : int;
  seed : int;
  slice_width : int;
  ot_mode : Dstress_crypto.Ot_ext.mode;
  preprocess : bool;
  executor : string;
}

type summary = {
  output : int;
  mpc_rounds : int;
  mpc_and_gates : int;
  mpc_ots : int;
  trace : string;
  metrics : string;
}

type response = Completed of summary | Rejected of string | Degraded of string

let req_magic = "DREQ"
let rsp_magic = "DRSP"
let req_version = 1
let max_executor_len = 1024
let req_fixed_bytes = 38 (* magic..slice_width + executor length prefix *)

let encode_request r =
  let elen = String.length r.executor in
  if elen > 0xFFFF then invalid_arg "Service.encode_request: executor spec too long";
  let b = Bytes.create (req_fixed_bytes + elen) in
  Bytes.blit_string req_magic 0 b 0 4;
  Bytes.set_uint8 b 4 req_version;
  Bytes.set_uint8 b 5 (match r.workload with En -> 0 | Egj -> 1);
  Bytes.set_uint8 b 6
    (match r.ot_mode with Dstress_crypto.Ot_ext.Simulation -> 0 | Dstress_crypto.Ot_ext.Crypto -> 1);
  Bytes.set_uint8 b 7 (if r.preprocess then 1 else 0);
  Bytes.set_int64_le b 8 (Int64.of_int r.seed);
  Bytes.set_int32_le b 16 (Int32.of_int r.core);
  Bytes.set_int32_le b 20 (Int32.of_int r.periphery);
  Bytes.set_int32_le b 24 (Int32.of_int r.iterations);
  Bytes.set_int32_le b 28 (Int32.of_int r.k);
  Bytes.set_int32_le b 32 (Int32.of_int r.slice_width);
  Bytes.set_uint16_le b 36 elen;
  Bytes.blit_string r.executor 0 b req_fixed_bytes elen;
  b

let decode_request b =
  let len = Bytes.length b in
  if len < req_fixed_bytes then Error (Printf.sprintf "truncated request: %d bytes" len)
  else if Bytes.sub_string b 0 4 <> req_magic then Error "bad request magic"
  else if Bytes.get_uint8 b 4 <> req_version then
    Error (Printf.sprintf "unsupported request version %d" (Bytes.get_uint8 b 4))
  else
    let workload_byte = Bytes.get_uint8 b 5 in
    let ot_byte = Bytes.get_uint8 b 6 in
    let flags = Bytes.get_uint8 b 7 in
    let elen = Bytes.get_uint16_le b 36 in
    if len < req_fixed_bytes + elen then
      Error
        (Printf.sprintf "truncated request body: %d bytes, executor spec wants %d" len
           (req_fixed_bytes + elen))
    else if len > req_fixed_bytes + elen then
      Error (Printf.sprintf "trailing bytes after request: %d" (len - req_fixed_bytes - elen))
    else
      match
        ( (match workload_byte with 0 -> Some En | 1 -> Some Egj | _ -> None),
          match ot_byte with
          | 0 -> Some Dstress_crypto.Ot_ext.Simulation
          | 1 -> Some Dstress_crypto.Ot_ext.Crypto
          | _ -> None )
      with
      | None, _ -> Error (Printf.sprintf "unknown workload %d" workload_byte)
      | _, None -> Error (Printf.sprintf "unknown OT mode %d" ot_byte)
      | Some workload, Some ot_mode ->
          Ok
            {
              workload;
              core = Int32.to_int (Bytes.get_int32_le b 16);
              periphery = Int32.to_int (Bytes.get_int32_le b 20);
              iterations = Int32.to_int (Bytes.get_int32_le b 24);
              k = Int32.to_int (Bytes.get_int32_le b 28);
              seed = Int64.to_int (Bytes.get_int64_le b 8);
              slice_width = Int32.to_int (Bytes.get_int32_le b 32);
              ot_mode;
              preprocess = flags land 1 <> 0;
              executor = Bytes.sub_string b req_fixed_bytes elen;
            }

(* status byte *)
let st_completed = 0
let st_rejected = 1
let st_degraded = 2

let put_lstring buf s =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int (String.length s));
  Buffer.add_bytes buf b;
  Buffer.add_string buf s

let encode_response = function
  | Completed s ->
      let buf = Buffer.create (64 + String.length s.trace + String.length s.metrics) in
      Buffer.add_string buf rsp_magic;
      Buffer.add_uint8 buf req_version;
      Buffer.add_uint8 buf st_completed;
      let b = Bytes.create 32 in
      Bytes.set_int64_le b 0 (Int64.of_int s.output);
      Bytes.set_int64_le b 8 (Int64.of_int s.mpc_rounds);
      Bytes.set_int64_le b 16 (Int64.of_int s.mpc_and_gates);
      Bytes.set_int64_le b 24 (Int64.of_int s.mpc_ots);
      Buffer.add_bytes buf b;
      put_lstring buf s.trace;
      put_lstring buf s.metrics;
      Buffer.to_bytes buf
  | (Rejected msg | Degraded msg) as r ->
      let buf = Buffer.create (10 + String.length msg) in
      Buffer.add_string buf rsp_magic;
      Buffer.add_uint8 buf req_version;
      Buffer.add_uint8 buf (match r with Rejected _ -> st_rejected | _ -> st_degraded);
      put_lstring buf msg;
      Buffer.to_bytes buf

let get_lstring b ~at ~len ~what =
  if at + 4 > len then Error (Printf.sprintf "truncated response: no %s length" what)
  else
    let n = Int32.to_int (Bytes.get_int32_le b at) in
    if n < 0 || at + 4 + n > len then
      Error (Printf.sprintf "truncated response: %s wants %d bytes" what n)
    else Ok (Bytes.sub_string b (at + 4) n, at + 4 + n)

let decode_response b =
  let len = Bytes.length b in
  if len < 6 then Error (Printf.sprintf "truncated response: %d bytes" len)
  else if Bytes.sub_string b 0 4 <> rsp_magic then Error "bad response magic"
  else if Bytes.get_uint8 b 4 <> req_version then
    Error (Printf.sprintf "unsupported response version %d" (Bytes.get_uint8 b 4))
  else
    let status = Bytes.get_uint8 b 5 in
    if status = st_completed then
      if len < 38 then Error "truncated response: short completed body"
      else
        match get_lstring b ~at:38 ~len ~what:"trace" with
        | Error e -> Error e
        | Ok (trace, at) -> (
            match get_lstring b ~at ~len ~what:"metrics" with
            | Error e -> Error e
            | Ok (metrics, at) ->
                if at <> len then Error "trailing bytes after response"
                else
                  Ok
                    (Completed
                       {
                         output = Int64.to_int (Bytes.get_int64_le b 6);
                         mpc_rounds = Int64.to_int (Bytes.get_int64_le b 14);
                         mpc_and_gates = Int64.to_int (Bytes.get_int64_le b 22);
                         mpc_ots = Int64.to_int (Bytes.get_int64_le b 30);
                         trace;
                         metrics;
                       }))
    else if status = st_rejected || status = st_degraded then
      match get_lstring b ~at:6 ~len ~what:"message" with
      | Error e -> Error e
      | Ok (msg, at) ->
          if at <> len then Error "trailing bytes after response"
          else Ok (if status = st_rejected then Rejected msg else Degraded msg)
    else Error (Printf.sprintf "unknown response status %d" status)

let request_executor r =
  if r.executor = "" then Ok Executor.sequential else Executor.of_string r.executor

let validate_request r =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if r.core < 1 then err "core must be >= 1 (got %d)" r.core
  else if r.periphery < 1 then err "periphery must be >= 1 (got %d)" r.periphery
  else if r.core + r.periphery > 4096 then
    err "network too large: core + periphery = %d > 4096" (r.core + r.periphery)
  else if r.iterations < 1 || r.iterations > 1024 then
    err "iterations must be in [1, 1024] (got %d)" r.iterations
  else if r.k < 1 || r.k > 64 then err "k must be in [1, 64] (got %d)" r.k
  else if r.k + 1 > r.core + r.periphery then
    err "blocks of k + 1 = %d members need as many banks (core + periphery = %d)" (r.k + 1)
      (r.core + r.periphery)
  else if r.slice_width < 1 || r.slice_width > 64 then
    err "slice_width must be in [1, 64] (got %d)" r.slice_width
  else if String.length r.executor > max_executor_len then
    err "executor spec longer than %d bytes" max_executor_len
  else
    match request_executor r with
    | Ok _ -> Ok ()
    | Error m -> err "executor spec: %s" m

(* ------------------------------------------------------------------ *)
(* Persistent pool (coordinator side)                                  *)
(* ------------------------------------------------------------------ *)

type pool_opts = {
  workers : int;
  queue_depth : int;
  request_deadline : float;
  max_respawns_per_slot : int;
  max_attempts_per_request : int;
  slow_request_s : float;
}

let default_pool_opts =
  {
    workers = 2;
    queue_depth = 64;
    request_deadline = 120.0;
    max_respawns_per_slot = 2;
    max_attempts_per_request = 3;
    slow_request_s = 5.0;
  }

(* Longest single wait of the serve loop's select and of the drain in
   [shutdown_pool]. *)
let poll_interval = 0.02

type entry = {
  id : int;
  req : request;
  reply : response -> unit;
  trace : int64;  (** trace ID stamped on every frame and log line *)
  submitted_at : float;
  mutable dispatched_at : float;  (** start of the current attempt *)
  mutable attempts : int;  (** dispatches so far *)
}

type pool = {
  po : pool_opts;
  sup : entry Supervisor.t;
  m : Metrics.t;
  log : Log.t;
  started_at : float;
  mutable next_trace : int64;
  mutable queue_high_water : int;
  queue : entry Queue.t;
  mutable next_id : int;
  mutable dispatched : int;  (** dispatch counter — the fault source's [request_index] *)
  mutable fault_source : (request_index:int -> worker:int -> Supervisor.fault option) option;
  mutable closed : bool;
}

let now () = Unix.gettimeofday ()

let pool_metrics p = p.m
let set_pool_fault_source p src = p.fault_source <- Some src
let pool_fds p = Supervisor.live_fds p.sup

let pool_idle p =
  Queue.is_empty p.queue
  && Array.for_all (fun s -> s.Supervisor.running = None) (Supervisor.slots p.sup)

let all_abandoned p =
  Array.for_all (fun s -> s.Supervisor.abandoned) (Supervisor.slots p.sup)

(* Inside a worker: decode the request, run the handler, encode the
   response. A handler's [Error] rejects the request with its message; a
   handler exception fails only that request. *)
let serve_request handler payload =
  match decode_request payload with
  | Error e -> Error e
  | Ok req ->
      Ok (encode_response (match handler req with Ok s -> Completed s | Error m -> Rejected m))

let create_pool ?(opts = default_pool_opts) ?(log = Log.nop)
    ?(fork_fds = fun () -> []) ~handler () =
  if opts.workers < 1 then invalid_arg "Service.create_pool: workers < 1";
  if opts.queue_depth < 1 then invalid_arg "Service.create_pool: queue_depth < 1";
  if not (opts.request_deadline > 0.0) then
    invalid_arg "Service.create_pool: request_deadline <= 0";
  if opts.max_respawns_per_slot < 0 || opts.max_attempts_per_request < 1 then
    invalid_arg "Service.create_pool: bad budget";
  let m = Metrics.create () in
  {
    po = opts;
    sup =
      Supervisor.create ~workers:opts.workers
        ~max_respawns_per_slot:opts.max_respawns_per_slot ~log ~metrics:m ~fork_fds
        ~serve:(serve_request handler) ();
    m;
    log;
    started_at = now ();
    next_trace = 1L;
    queue_high_water = 0;
    queue = Queue.create ();
    next_id = 0;
    dispatched = 0;
    fault_source = None;
    closed = false;
  }

let submit p req reply =
  if p.closed then invalid_arg "Service.submit: pool is shut down";
  if all_abandoned p then begin
    Log.error p.log "request refused: no live workers" [];
    `No_workers
  end
  else if Queue.length p.queue >= p.po.queue_depth then begin
    Metrics.incr p.m "service.requests_rejected";
    Log.warn p.log "request rejected: queue full"
      [ ("queue_depth", Log.Int (Queue.length p.queue)) ];
    `Queue_full
  end
  else begin
    let trace = p.next_trace in
    p.next_trace <- Int64.add trace 1L;
    let e =
      {
        id = p.next_id;
        req;
        reply;
        trace;
        submitted_at = now ();
        dispatched_at = 0.0;
        attempts = 0;
      }
    in
    p.next_id <- p.next_id + 1;
    Queue.add e p.queue;
    Metrics.incr p.m "service.requests_enqueued";
    let depth = Queue.length p.queue in
    if depth > p.queue_high_water then p.queue_high_water <- depth;
    if Log.enabled p.log Log.Debug then
      Log.debug p.log ~trace "request enqueued"
        [ ("id", Log.Int e.id); ("queue_depth", Log.Int depth) ];
    `Queued
  end

let finish p e resp =
  let outcome =
    match resp with
    | Completed _ ->
        Metrics.incr p.m "service.requests_completed";
        "completed"
    | Degraded _ ->
        Metrics.incr p.m "service.requests_degraded";
        "degraded"
    | Rejected _ ->
        Metrics.incr p.m "service.requests_rejected";
        "rejected"
  in
  let e2e = now () -. e.submitted_at in
  Metrics.observe_sketch p.m "service.request_s" e2e;
  if e2e > p.po.slow_request_s then
    Log.warn p.log ~trace:e.trace "slow request"
      [
        ("id", Log.Int e.id);
        ("outcome", Log.Str outcome);
        ("seconds", Log.Float e2e);
        ("threshold_s", Log.Float p.po.slow_request_s);
        ("attempts", Log.Int e.attempts);
      ]
  else if Log.enabled p.log Log.Info then
    Log.info p.log ~trace:e.trace "request finished"
      [
        ("id", Log.Int e.id);
        ("outcome", Log.Str outcome);
        ("seconds", Log.Float e2e);
      ];
  e.reply resp

(* A redispatch burns one attempt; past the budget the request degrades
   with a typed outcome instead of cycling through respawns forever. *)
let redispatch p e reason =
  if e.attempts >= p.po.max_attempts_per_request then
    finish p e
      (Degraded
         (Printf.sprintf "request failed after %d attempt(s): %s" e.attempts reason))
  else begin
    Metrics.incr p.m "service.redispatches";
    Log.warn p.log ~trace:e.trace "request re-queued"
      [ ("id", Log.Int e.id); ("attempts", Log.Int e.attempts);
        ("reason", Log.Str reason) ];
    Queue.add e p.queue
  end

let fail_all_queued p reason =
  Queue.iter (fun e -> finish p e (Degraded reason)) p.queue;
  Queue.clear p.queue

let handle p = function
  | Supervisor.Reply (e, outcome) -> (
      Metrics.observe_sketch p.m "service.dispatch_s" (now () -. e.dispatched_at);
      match outcome with
      | Error msg ->
          (* A worker-side failure is deterministic — retrying on another
             worker would fail identically. Degrade. *)
          finish p e (Degraded ("request failed on worker: " ^ msg))
      | Ok body -> (
          match decode_response body with
          | Ok resp -> finish p e resp
          | Error msg ->
              Metrics.incr p.m "pool.task_errors";
              finish p e (Degraded ("undecodable worker response: " ^ msg))))
  | Supervisor.Lost (job, reason) ->
      Option.iter (fun e -> redispatch p e reason) job;
      if all_abandoned p then fail_all_queued p "no live workers remain"

let dispatch_ready p =
  Array.iter
    (fun s ->
      if Supervisor.idle s && not (Queue.is_empty p.queue) then begin
        let e = Queue.pop p.queue in
        let idx = p.dispatched in
        p.dispatched <- idx + 1;
        e.attempts <- e.attempts + 1;
        let fault =
          Option.bind p.fault_source (fun src -> src ~request_index:idx ~worker:s.Supervisor.sid)
        in
        e.dispatched_at <- now ();
        Metrics.observe_sketch p.m "service.queue_wait_s" (e.dispatched_at -. e.submitted_at);
        if Log.enabled p.log Log.Debug then
          Log.debug p.log ~trace:e.trace "request dispatched"
            [
              ("id", Log.Int e.id);
              ("worker", Log.Int s.Supervisor.sid);
              ("attempt", Log.Int e.attempts);
            ];
        match
          Supervisor.dispatch p.sup s ~trace:e.trace ?fault e (encode_request e.req)
        with
        | None -> Metrics.incr p.m "service.requests_dispatched"
        | Some lost -> handle p lost
      end)
    (Supervisor.slots p.sup)

let pool_step p ~timeout =
  if p.closed then invalid_arg "Service.pool_step: pool is shut down";
  dispatch_ready p;
  List.iter (handle p) (Supervisor.step p.sup ~timeout);
  (* The per-attempt deadline loses a wedged worker the way suspicion
     loses a silent one — a request can never hang. *)
  Array.iter
    (fun (s : entry Supervisor.slot) ->
      match s.running with
      | Some e when now () -. e.dispatched_at > p.po.request_deadline ->
          handle p
            (Supervisor.lose p.sup s ~metric:"pool.request_timeouts"
               ~reason:"request deadline expired")
      | _ -> ())
    (Supervisor.slots p.sup);
  (* Re-queued work should not wait for the caller's next turn. *)
  dispatch_ready p

let shutdown_pool p =
  if not p.closed then begin
    let deadline = now () +. 30.0 in
    (try
       while (not (pool_idle p)) && now () < deadline do
         pool_step p ~timeout:(min poll_interval (max 0.0 (deadline -. now ())))
       done
     with _ -> ());
    p.closed <- true;
    (* Anything still unfinished gets a typed outcome, never silence. *)
    let unfinished = Supervisor.shutdown p.sup @ List.of_seq (Queue.to_seq p.queue) in
    Queue.clear p.queue;
    List.iter
      (fun e -> finish p e (Degraded "daemon shutting down before the request finished"))
      unfinished
  end

(* ------------------------------------------------------------------ *)
(* Live stats snapshot (the Stats admin request)                       *)
(* ------------------------------------------------------------------ *)

type worker_stat = {
  w_slot : int;
  w_pid : int;
  w_state : string; (* "idle" | "busy" | "abandoned" *)
  w_respawns : int;
  w_trace : int64; (* trace of the running request; 0L when idle *)
}

type latency_stat = {
  l_count : int;
  l_total : float;
  l_mean : float;
  l_min : float;
  l_max : float;
  l_p50 : float;
  l_p90 : float;
  l_p99 : float;
}

type stats = {
  uptime_s : float;
  queue_depth : int;
  queue_high_water : int;
  queue_capacity : int;
  workers : worker_stat list;
  counters : (string * int) list;
  latencies : (string * latency_stat) list;
  log_tail : string list;
}

let stats_schema = "dstress-stats/2"

let latency_of_sketch sk =
  let q p = Sketch.quantile_or ~default:0.0 sk p in
  {
    l_count = Sketch.count sk;
    l_total = Sketch.total sk;
    l_mean = Sketch.mean sk;
    l_min = Sketch.min_value sk;
    l_max = Sketch.max_value sk;
    l_p50 = q 0.5;
    l_p90 = q 0.9;
    l_p99 = q 0.99;
  }

let pool_stats p =
  let counters =
    List.filter_map
      (fun name ->
        match Metrics.find p.m name with
        | Some (Metrics.Counter c) -> Some (name, c)
        | _ -> None)
      (Metrics.names p.m)
  in
  let latencies =
    List.filter_map
      (fun name ->
        match Metrics.find p.m name with
        | Some (Metrics.Quantiles sk) -> Some (name, latency_of_sketch sk)
        | _ -> None)
      (Metrics.names p.m)
  in
  let workers =
    Array.to_list (Supervisor.slots p.sup)
    |> List.map (fun (s : entry Supervisor.slot) ->
           {
             w_slot = s.sid;
             w_pid = s.pid;
             w_state =
               (if s.abandoned then "abandoned"
                else if s.running <> None then "busy"
                else "idle");
             w_respawns = s.respawns;
             w_trace = s.trace;
           })
  in
  {
    uptime_s = now () -. p.started_at;
    queue_depth = Queue.length p.queue;
    queue_high_water = p.queue_high_water;
    queue_capacity = p.po.queue_depth;
    workers;
    counters;
    latencies;
    log_tail = List.map Log.render (Log.tail ~max:32 p.log);
  }

let trace_hex t = Printf.sprintf "%Lx" t

let worker_stat_to_json w =
  Json.Obj
    [
      ("slot", Json.Int w.w_slot);
      ("pid", Json.Int w.w_pid);
      ("state", Json.Str w.w_state);
      ("respawns", Json.Int w.w_respawns);
      ("trace", Json.Str (trace_hex w.w_trace));
    ]

let latency_stat_to_json l =
  Json.Obj
    [
      ("count", Json.Int l.l_count);
      ("total", Json.Num l.l_total);
      ("mean", Json.Num l.l_mean);
      ("min", Json.Num l.l_min);
      ("max", Json.Num l.l_max);
      ("p50", Json.Num l.l_p50);
      ("p90", Json.Num l.l_p90);
      ("p99", Json.Num l.l_p99);
    ]

let stats_to_json st =
  Json.Obj
    [
      ("schema", Json.Str stats_schema);
      ("uptime_s", Json.Num st.uptime_s);
      ( "queue",
        Json.Obj
          [
            ("depth", Json.Int st.queue_depth);
            ("high_water", Json.Int st.queue_high_water);
            ("capacity", Json.Int st.queue_capacity);
          ] );
      ("workers", Json.List (List.map worker_stat_to_json st.workers));
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) st.counters));
      ( "latencies",
        Json.Obj (List.map (fun (k, l) -> (k, latency_stat_to_json l)) st.latencies)
      );
      ("log_tail", Json.List (List.map (fun l -> Json.Str l) st.log_tail));
    ]

let stats_of_json j =
  let ( let* ) = Result.bind in
  let ctx = "stats" in
  let* tag = Json.str_field ctx "schema" j in
  if tag <> stats_schema then Json.errorf "unsupported stats schema %S" tag
  else
    let* uptime_s = Json.num_field ctx "uptime_s" j in
    let* queue =
      match Json.member "queue" j with
      | Some q -> Ok q
      | None -> Json.errorf "stats: missing field %S" "queue"
    in
    let* queue_depth = Json.int_field ctx "depth" queue in
    let* queue_high_water = Json.int_field ctx "high_water" queue in
    let* queue_capacity = Json.int_field ctx "capacity" queue in
    let* ws = Json.list_field ctx "workers" j in
    let* workers =
      Json.map_result
        (fun w ->
          let* w_slot = Json.int_field ctx "slot" w in
          let* w_pid = Json.int_field ctx "pid" w in
          let* w_state = Json.str_field ctx "state" w in
          let* w_respawns = Json.int_field ctx "respawns" w in
          let* hex = Json.str_field ctx "trace" w in
          let* w_trace =
            match Int64.of_string_opt ("0x" ^ hex) with
            | Some t -> Ok t
            | None -> Json.errorf "stats: bad trace %S" hex
          in
          Ok { w_slot; w_pid; w_state; w_respawns; w_trace })
        ws
    in
    let* counter_kvs = Json.obj_field ctx "counters" j in
    let* counters =
      Json.map_result
        (function
          | k, Json.Int v -> Ok (k, v)
          | k, _ -> Json.errorf "stats: counter %S is not an int" k)
        counter_kvs
    in
    let* latency_kvs = Json.obj_field ctx "latencies" j in
    let* latencies =
      Json.map_result
        (fun (k, l) ->
          let* l_count = Json.int_field ctx "count" l in
          let* l_total = Json.num_field ctx "total" l in
          let* l_mean = Json.num_field ctx "mean" l in
          let* l_min = Json.num_field ctx "min" l in
          let* l_max = Json.num_field ctx "max" l in
          let* l_p50 = Json.num_field ctx "p50" l in
          let* l_p90 = Json.num_field ctx "p90" l in
          let* l_p99 = Json.num_field ctx "p99" l in
          Ok (k, { l_count; l_total; l_mean; l_min; l_max; l_p50; l_p90; l_p99 }))
        latency_kvs
    in
    let* lines = Json.list_field ctx "log_tail" j in
    let* log_tail =
      Json.map_result
        (function
          | Json.Str l -> Ok l
          | _ -> Json.errorf "stats: log_tail entry is not a string")
        lines
    in
    Ok
      {
        uptime_s;
        queue_depth;
        queue_high_water;
        queue_capacity;
        workers;
        counters;
        latencies;
        log_tail;
      }

let encode_stats st = Bytes.of_string (Json.to_string (stats_to_json st))

let decode_stats b =
  match Json.parse (Bytes.to_string b) with
  | Error e -> Error ("stats: " ^ e)
  | Ok j -> stats_of_json j

(* Prometheus text exposition: every name is sanitized to
   [a-zA-Z0-9_] under a dstress_ prefix; quantile sketches become
   summary-style rows. The output is deterministic given the snapshot
   (sorted metric names, fixed float format). *)
let prom_name name =
  "dstress_"
  ^ String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      name

let prom_float f = Printf.sprintf "%.9g" f

let stats_prometheus st =
  let b = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf
      (fun l ->
        Buffer.add_string b l;
        Buffer.add_char b '\n')
      fmt
  in
  line "# dstress daemon live stats (scrape of the Stats admin request)";
  line "dstress_uptime_seconds %s" (prom_float st.uptime_s);
  line "dstress_queue_depth %d" st.queue_depth;
  line "dstress_queue_high_water %d" st.queue_high_water;
  line "dstress_queue_capacity %d" st.queue_capacity;
  List.iter
    (fun w ->
      line "dstress_worker_up{worker=\"%d\",pid=\"%d\",state=\"%s\"} %d" w.w_slot
        w.w_pid w.w_state
        (if w.w_state = "abandoned" then 0 else 1);
      line "dstress_worker_respawns{worker=\"%d\"} %d" w.w_slot w.w_respawns)
    st.workers;
  List.iter (fun (k, v) -> line "%s %d" (prom_name k) v) st.counters;
  List.iter
    (fun (k, l) ->
      let n = prom_name k in
      line "%s{quantile=\"0.5\"} %s" n (prom_float l.l_p50);
      line "%s{quantile=\"0.9\"} %s" n (prom_float l.l_p90);
      line "%s{quantile=\"0.99\"} %s" n (prom_float l.l_p99);
      line "%s_sum %s" n (prom_float l.l_total);
      line "%s_count %d" n l.l_count)
    st.latencies;
  if st.log_tail <> [] then begin
    line "# log tail:";
    List.iter (fun l -> line "# %s" l) st.log_tail
  end;
  Buffer.contents b

(* The client side of one exchange: send a frame, then read until a
   frame of kind [reply] arrives and decode it. Running out of [timeout]
   or an undecodable reply raises a typed [Transport.Error]. *)
let exchange ~what ~timeout conn ~kind payload ~reply decode =
  Transport.send conn ~kind payload;
  let deadline = now () +. timeout in
  let rec await () =
    let remaining = deadline -. now () in
    if remaining <= 0.0 then raise (Transport.Error (Transport.Timeout (what ^ ": no reply")))
    else
      match Transport.recv conn ~timeout:remaining with
      | Some fr when fr.Transport.kind = reply -> (
          match decode fr.Transport.payload with
          | Ok v -> v
          | Error e -> raise (Transport.Error (Transport.Integrity (what ^ ": " ^ e))))
      | Some _ | None -> await ()
  in
  await ()

let fetch_stats ?(timeout = 10.0) conn =
  exchange ~what:"stats reply" ~timeout conn ~kind:Transport.Kind.stats Bytes.empty
    ~reply:Transport.Kind.stats_reply decode_stats

(* ------------------------------------------------------------------ *)
(* Server                                                              *)
(* ------------------------------------------------------------------ *)

type listen_addr = Unix_socket of string | Tcp of string * int

let bind_listener = function
  | Unix_socket path -> (Transport.listen ~path, path)
  | Tcp (host, port) ->
      let lfd, bound = Transport.listen_tcp ~host ~port () in
      (lfd, Printf.sprintf "%s:%d" host bound)

type client = {
  cconn : Transport.t;
  mutable inflight : bool;
  mutable dead : bool;
}

let serve ?(pool_opts = default_pool_opts) ?(log = Log.nop)
    ?(ready = fun ~addr:_ -> ()) ~handler ~listener ~addr () =
  let clients : client list ref = ref [] in
  let listener_open = ref true in
  (* A named socket's file goes with its listener. It is unlinked while
     still bound: a closed socket file is stale, and another daemon may
     replace it with its own before an unlink here would run. *)
  let close_listener () =
    if !listener_open then begin
      listener_open := false;
      (match Unix.getsockname listener with
      | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | Unix.ADDR_INET _ | (exception Unix.Unix_error _) -> ());
      Transport.close_quietly listener
    end
  in
  (* The respawn path forks mid-service: children must drop the listener
     and every client connection they inherit. *)
  let fork_fds () =
    (if !listener_open then [ listener ] else [])
    @ List.filter_map (fun c -> if c.dead then None else Some (Transport.fd c.cconn)) !clients
  in
  (* Workers fork here — before any Domain.spawn in this process. *)
  let pool = create_pool ~opts:pool_opts ~log ~fork_fds ~handler () in
  Log.info log "daemon listening"
    [ ("addr", Log.Str addr); ("workers", Log.Int pool_opts.workers) ];
  let draining = ref false in
  let install signal =
    match Sys.signal signal (Sys.Signal_handle (fun _ -> draining := true)) with
    | old -> Some (signal, old)
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  let saved = List.filter_map install [ Sys.sigterm; Sys.sigint ] in
  let restore () =
    List.iter (fun (signal, old) -> try Sys.set_signal signal old with _ -> ()) saved
  in
  let reply_to c resp =
    if not c.dead then
      match Transport.send c.cconn ~kind:Transport.Kind.response (encode_response resp) with
      | () -> ()
      | exception Transport.Error _ ->
          c.dead <- true;
          Transport.close c.cconn
  in
  let handle_request c payload =
    if c.inflight then
      reply_to c (Rejected "one request per connection at a time")
    else if !draining then reply_to c (Rejected "daemon is draining")
    else
      match decode_request payload with
      | Error e -> reply_to c (Rejected ("malformed request: " ^ e))
      | Ok req -> (
          match validate_request req with
          | Error e -> reply_to c (Rejected ("invalid request: " ^ e))
          | Ok () -> (
              let on_done resp =
                c.inflight <- false;
                reply_to c resp
              in
              match submit pool req on_done with
              | `Queued -> c.inflight <- true
              | `Queue_full ->
                  reply_to c
                    (Rejected
                       (Printf.sprintf "queue full (depth %d)" pool_opts.queue_depth))
              | `No_workers -> reply_to c (Rejected "no live workers remain")))
  in
  let drain_client c =
    let continue_ = ref true in
    while !continue_ && not c.dead do
      match Transport.recv c.cconn ~timeout:0.0 with
      | None -> continue_ := false
      | Some fr when fr.Transport.kind = Transport.Kind.request ->
          handle_request c fr.Transport.payload
      | Some fr when fr.Transport.kind = Transport.Kind.stats -> (
          (* Admin request: always answered, even while draining or with a
             clearing request in flight on this connection. *)
          match
            Transport.send c.cconn ~kind:Transport.Kind.stats_reply
              (encode_stats (pool_stats pool))
          with
          | () -> ()
          | exception Transport.Error _ ->
              c.dead <- true;
              Transport.close c.cconn)
      | Some _ -> ()
      | exception Transport.Error _ ->
          continue_ := false;
          c.dead <- true;
          Transport.close c.cconn
    done
  in
  ready ~addr;
  Fun.protect ~finally:restore (fun () ->
      let finished () = !draining && pool_idle pool in
      while not (finished ()) do
        if !draining && !listener_open then begin
          close_listener ();
          Log.info log "daemon draining: listener closed" []
        end;
        let client_fds =
          List.filter_map (fun c -> if c.dead then None else Some (Transport.fd c.cconn)) !clients
        in
        let fds =
          (if !listener_open then [ listener ] else [])
          @ client_fds @ pool_fds pool
        in
        let readable = if fds = [] then [] else Transport.select_r fds poll_interval in
        if !listener_open && List.mem listener readable then begin
          match Unix.accept listener with
          | fdesc, _ ->
              (try Unix.setsockopt fdesc Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
              let cconn = Transport.of_fd ~metrics:(pool_metrics pool) ~log fdesc in
              clients := { cconn; inflight = false; dead = false } :: !clients
          | exception Unix.Unix_error _ -> ()
        end;
        List.iter
          (fun c ->
            if (not c.dead) && List.mem (Transport.fd c.cconn) readable then drain_client c)
          !clients;
        clients := List.filter (fun c -> not c.dead) !clients;
        pool_step pool ~timeout:0.0
      done;
      List.iter (fun c -> if not c.dead then Transport.close c.cconn) !clients;
      clients := [];
      shutdown_pool pool;
      close_listener ())

let call ?(timeout = 120.0) conn req =
  exchange ~what:"service call" ~timeout conn ~kind:Transport.Kind.request
    (encode_request req) ~reply:Transport.Kind.response decode_response
