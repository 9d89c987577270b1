(* Daemon-mode economics: what a request costs once workers are forked
   once at startup and kept warm.

   The headline row is deterministic: [dispatch-speedup] emits the
   counter [dispatch_within_10_rtt], which bench_diff --counters-only
   gates — one persistent-pool request must cost at most ten framed
   round trips over TCP loopback (the rtt-tcp row of the same run). A
   request is one task frame out and one result frame back plus queue
   bookkeeping, so it costs about one or two round trips; a
   drain that waits even 2 ms per reply costs over a hundred. The wall
   latencies are machine-dependent telemetry.

   Fork-before-domain ordering: the pool forks worker processes, so
   this suite runs before any suite that spawns domains (see the
   ordering note in main.ml). The coordinator side here never spawns
   domains at all. *)

open Bench_util
module Transport = Dstress_runtime.Transport
module Service = Dstress_runtime.Service
module Metrics = Dstress_obs.Obs.Metrics
module Banking = Dstress_graphgen.Banking
module Query = Dstress_graphgen.Query

(* ------------------------------------------------------------------ *)
(* Requests and handlers                                               *)
(* ------------------------------------------------------------------ *)

let base_request =
  {
    Service.workload = Service.En;
    core = 2;
    periphery = 2;
    iterations = 2;
    k = 2;
    seed = 1;
    slice_width = 64;
    ot_mode = Dstress_crypto.Ot_ext.Simulation;
    preprocess = false;
    executor = "";
  }

(* A handler that does no work: everything the row measures is dispatch
   tax — queueing, the request frame out, the worker's decode/encode,
   the result frame back. *)
let noop_handler (req : Service.request) =
  Ok
    {
      Service.output = req.Service.seed;
      mpc_rounds = 0;
      mpc_and_gates = 0;
      mpc_ots = 0;
      trace = "[]";
      metrics = "{}";
    }

(* The handler `dstress serve` runs at its defaults (epsilon 1, cascade
   shock): one seeded EN clearing per request. The run owns everything
   it computes, preprocessed sessions included, so a repeated request
   does the same work as the first. *)
let en_handler = Query.handler ~grp ~epsilon:1.0 ~shock:Banking.Cascade

(* Push [n] requests through the pool and step until every callback has
   fired; returns the completed count (callers assert it equals [n]). *)
let drain_requests pool reqs =
  let done_ = ref 0 and total = List.length reqs in
  List.iter
    (fun req ->
      match Service.submit pool req (fun _ -> incr done_) with
      | `Queued -> ()
      | `Queue_full | `No_workers -> failwith "service_bench: submit rejected")
    reqs;
  let deadline = Unix.gettimeofday () +. 60.0 in
  while !done_ < total do
    if Unix.gettimeofday () > deadline then failwith "service_bench: pool drain stuck";
    Service.pool_step pool ~timeout:0.01
  done;
  !done_

(* ------------------------------------------------------------------ *)
(* Dispatch tax: the persistent pool                                   *)
(* ------------------------------------------------------------------ *)

let bench_dispatch ~requests =
  let opts = { Service.default_pool_opts with Service.queue_depth = requests + 1 } in
  let pool = Service.create_pool ~opts ~handler:noop_handler () in
  let reqs =
    List.init requests (fun i -> { base_request with Service.seed = 1000 + i })
  in
  let persistent =
    measure ~repeats:3 ~warmup:1 ~name:"persistent-dispatch"
      ~params:[ ("workers", Json.Int opts.Service.workers) ]
      ~items:("req", float_of_int requests)
      ~telemetry:(fun (n, _) ->
        ( [
            ("requests_per_batch", n);
            ("requests_rejected",
             Metrics.counter (Service.pool_metrics pool) "service.requests_rejected");
          ],
          [] ))
      (fun () ->
        (* Time the whole batch, not one request at a time: concurrent
           submissions are the daemon's operating point. *)
        let t0 = Unix.gettimeofday () in
        let n = drain_requests pool reqs in
        (n, Unix.gettimeofday () -. t0))
  in
  let _, batch_s = persistent in
  Service.shutdown_pool pool;
  batch_s /. float_of_int requests *. 1e6

(* ------------------------------------------------------------------ *)
(* TCP loopback RTT: the daemon's --listen path                        *)
(* ------------------------------------------------------------------ *)

let bench_tcp_rtt ~pings =
  let m = Metrics.create () in
  let lfd, port = Transport.listen_tcp ~host:"127.0.0.1" ~port:0 () in
  let a = Transport.connect_tcp ~metrics:m ~host:"127.0.0.1" ~port () in
  let b = Transport.accept ~metrics:m ~deadline:5.0 lfd in
  let payload = Bytes.make 64 'x' in
  let roundtrips () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to pings do
      Transport.send a ~kind:Transport.Kind.ping payload;
      (match Transport.recv b ~timeout:5.0 with
      | Some fr ->
          Transport.send b ~kind:Transport.Kind.echo fr.Transport.payload
      | None -> failwith "service_bench: tcp ping lost");
      match Transport.recv a ~timeout:5.0 with
      | Some _ -> ()
      | None -> failwith "service_bench: tcp echo lost"
    done;
    (pings, Unix.gettimeofday () -. t0)
  in
  let _, run_s =
    measure ~repeats:3 ~warmup:1 ~name:"rtt-tcp"
      ~params:[ ("payload_bytes", Json.Int 64) ]
      ~items:("rtt", float_of_int pings)
      ~telemetry:(fun (n, _) ->
        ( [
            ("roundtrips_per_run", n);
            ("crc_failures", Metrics.counter m "transport.crc_failures");
            ("framing_errors", Metrics.counter m "transport.framing_errors");
          ],
          [] ))
      roundtrips
  in
  Transport.close a;
  Transport.close b;
  Unix.close lfd;
  Printf.printf "tcp loopback: %d round trips per run, clean wire\n%!" pings;
  run_s /. float_of_int pings *. 1e6

(* ------------------------------------------------------------------ *)
(* Repeated requests: one EN clearing, replayed on a persistent worker  *)
(* ------------------------------------------------------------------ *)

(* The same seeded preprocessed request, [repeats] more times after the
   first: every reply must carry the first one's output. *)
let bench_repeat_requests ~repeats =
  let pool =
    Service.create_pool
      ~opts:{ Service.default_pool_opts with Service.workers = 1 }
      ~handler:en_handler ()
  in
  let req = { base_request with Service.seed = 7; preprocess = true } in
  let outputs = ref [] in
  let run_one () =
    let got = ref None in
    (match Service.submit pool req (fun r -> got := Some r) with
    | `Queued -> ()
    | `Queue_full | `No_workers -> failwith "service_bench: repeat submit rejected");
    let deadline = Unix.gettimeofday () +. 60.0 in
    while !got = None do
      if Unix.gettimeofday () > deadline then failwith "service_bench: repeat run stuck";
      Service.pool_step pool ~timeout:0.01
    done;
    match !got with
    | Some (Service.Completed s) -> outputs := s.Service.output :: !outputs
    | Some (Service.Rejected m) | Some (Service.Degraded m) ->
        failwith ("service_bench: repeat request failed: " ^ m)
    | None -> assert false
  in
  let (), first_s = time run_one in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to repeats do
    run_one ()
  done;
  let repeat_mean_s = (Unix.gettimeofday () -. t0) /. float_of_int repeats in
  let identical =
    match !outputs with [] -> false | o :: rest -> List.for_all (( = ) o) rest
  in
  record "en-request-repeat"
    ~params:[ ("iterations", Json.Int req.Service.iterations) ]
    ~counters:[ ("repeats", repeats); ("outputs_identical", if identical then 1 else 0) ]
    ~floats:[ ("first_s", first_s); ("repeat_mean_s", repeat_mean_s) ];
  Service.shutdown_pool pool;
  Printf.printf
    "repeated EN requests: first %.3f s, then %.3f s mean over %d repeats (same output: %b)\n%!"
    first_s repeat_mean_s repeats identical

let run ~quick () =
  header "Service: persistent-pool dispatch, TCP RTT and repeated requests";
  let requests = if quick then 32 else 256 in
  let pings = if quick then 300 else 3000 in
  let repeats = if quick then 5 else 20 in
  let per_req_us = bench_dispatch ~requests in
  let rtt_us = bench_tcp_rtt ~pings in
  record "dispatch-speedup"
    ~counters:[ ("dispatch_within_10_rtt", if per_req_us <= 10.0 *. rtt_us then 1 else 0) ]
    ~floats:[ ("persistent_us_per_req", per_req_us); ("rtt_us", rtt_us) ];
  Printf.printf "dispatch: persistent %.0f us/req (%.1f RTTs of %.0f us)\n%!" per_req_us
    (per_req_us /. rtt_us) rtt_us;
  bench_repeat_requests ~repeats;
  Printf.printf
    "\nnote: the dispatch-speedup counter is the acceptance gate — a daemon\n\
     request must cost at most ten TCP loopback round trips of dispatch\n\
     overhead, or the pool's drain has started waiting on the wire.\n"
