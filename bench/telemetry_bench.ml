(* Telemetry overhead: what the wall-domain observability layer costs
   the hot paths it instruments.

   The headline row is [telemetry-tax]: the per-request cost of
   everything the service pool's request path adds — the log lines and
   the three latency-sketch observations — measured directly and
   compared against the measured per-request cost of persistent-pool
   dispatch itself. The counter
   [overhead_within_5pct] gates the ratio under bench_diff
   --counters-only: telemetry must stay below 5% of dispatch, or
   logging has crept onto the hot path.

   [sketch-add] additionally gates [rel_err_ok]: the p50/p99 estimates
   of a deterministic pseudo-random latency stream must stay within the
   sketch's advertised relative-error bound of the exact order
   statistics — a cheap end-to-end accuracy check on the same build the
   timings come from.

   Fork-before-domain ordering: the dispatch measurement forks pool
   workers, so this suite runs in the fork-safe region (with transport
   and service, before the executor suite's domain pool). *)

open Bench_util
module Service = Dstress_runtime.Service
module Metrics = Dstress_obs.Obs.Metrics
module Sketch = Dstress_obs.Sketch
module Log = Dstress_obs.Log
module Prng = Dstress_util.Prng

(* Deterministic latency-like stream: log-uniform over ~[50us, 500ms]. *)
let latency_stream n =
  let t = Prng.of_int 0x7e1e in
  Array.init n (fun _ ->
      5e-5 *. (10.0 ** (4.0 *. Prng.float t)))

let exact_quantile sorted q =
  sorted.(int_of_float (q *. float_of_int (Array.length sorted - 1)))

let bench_sketch_add ~n =
  let values = latency_stream n in
  let s = ref (Sketch.create ()) in
  let _ =
    measure ~repeats:3 ~warmup:1 ~name:"sketch-add"
      ~params:[ ("alpha", Json.Num Sketch.relative_error) ]
      ~items:("add", float_of_int n)
      ~telemetry:(fun () ->
        let sorted = Array.copy values in
        Array.sort compare sorted;
        let ok q =
          let exact = exact_quantile sorted q in
          let est = Sketch.quantile_or ~default:nan !s q in
          Float.abs (est -. exact) <= (Sketch.relative_error +. 1e-9) *. exact
        in
        ( [ ("rel_err_ok", if ok 0.5 && ok 0.99 then 1 else 0) ],
          [
            ("p50_est_s", Sketch.quantile_or ~default:0.0 !s 0.5);
            ("p99_est_s", Sketch.quantile_or ~default:0.0 !s 0.99);
          ] ))
      (fun () ->
        let fresh = Sketch.create () in
        Array.iter (Sketch.add fresh) values;
        s := fresh)
  in
  ()

let bench_log_append ~n =
  let log = Log.create ~level:Log.Debug () in
  let _ =
    measure ~repeats:3 ~warmup:1 ~name:"log-append"
      ~params:[ ("ring", Json.Int 256) ]
      ~items:("event", float_of_int n)
      ~telemetry:(fun elapsed ->
        (* The nop logger is the default on every hot path: re-run the
           same loop against it so the report shows what "logging off"
           costs (the [enabled] branch only). *)
        let t0 = Unix.gettimeofday () in
        for i = 1 to n do
          Log.debug Log.nop "request dispatched"
            [ ("id", Log.Int i); ("worker", Log.Int (i land 1)) ]
        done;
        let nop_s = Unix.gettimeofday () -. t0 in
        ( [ ("ring_dropped_bounded", if Log.dropped log <= Log.total log then 1 else 0) ],
          [
            ("enabled_ns_per_event", elapsed /. float_of_int n *. 1e9);
            ("nop_ns_per_event", nop_s /. float_of_int n *. 1e9);
          ] ))
      (fun () ->
        let t0 = Unix.gettimeofday () in
        for i = 1 to n do
          Log.debug log "request dispatched"
            [ ("id", Log.Int i); ("worker", Log.Int (i land 1)) ]
        done;
        Unix.gettimeofday () -. t0)
  in
  ()

(* ------------------------------------------------------------------ *)
(* The gate: telemetry cost vs persistent-dispatch cost                *)
(* ------------------------------------------------------------------ *)

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

let drain_requests pool reqs =
  let done_ = ref 0 and total = List.length reqs in
  List.iter
    (fun req ->
      match Service.submit pool req (fun _ -> incr done_) with
      | `Queued -> ()
      | `Queue_full | `No_workers -> failwith "telemetry_bench: submit rejected")
    reqs;
  let deadline = Unix.gettimeofday () +. 60.0 in
  while !done_ < total do
    if Unix.gettimeofday () > deadline then failwith "telemetry_bench: pool drain stuck";
    Service.pool_step pool ~timeout:0.01
  done;
  !done_

(* The request path's own telemetry, replayed in isolation: the log
   lines a Debug-level request lifecycle emits (enqueue, dispatch,
   finish) and the three latency-sketch observations. Measured per
   iteration, this is the tax one request pays. *)
let per_request_telemetry_chunk_s log m ~first ~iters =
  let t0 = Unix.gettimeofday () in
  for i = first to first + iters - 1 do
    if Log.enabled log Log.Debug then
      Log.debug log ~trace:(Int64.of_int i) "request enqueued"
        [ ("id", Log.Int i); ("queue_depth", Log.Int 1) ];
    if Log.enabled log Log.Debug then
      Log.debug log ~trace:(Int64.of_int i) "request dispatched"
        [ ("id", Log.Int i); ("worker", Log.Int (i land 1)); ("attempt", Log.Int 1) ];
    Metrics.observe_sketch m "service.queue_wait_s" 1e-5;
    Metrics.observe_sketch m "service.dispatch_s" 5e-4;
    Metrics.observe_sketch m "service.request_s" 6e-4;
    if Log.enabled log Log.Info then
      Log.info log ~trace:(Int64.of_int i) "request finished"
        [ ("id", Log.Int i); ("outcome", Log.Str "completed"); ("seconds", Log.Float 6e-4) ]
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int iters

(* Min over sub-timeslice chunks: the gate compares two machine-
   dependent costs as a ratio, and scheduler preemptions inside the
   loop can flip it on a loaded CI machine. Contention only ever
   inflates a measurement, so the per-iteration minimum over chunks
   short enough (~250 iters, well under a scheduler timeslice) that
   some run preemption-free estimates the intrinsic cost even when the
   machine is busy. *)
let per_request_telemetry_s ~iters =
  let log = Log.create ~level:Log.Debug () in
  let m = Metrics.create () in
  let chunk = 250 in
  let best = ref infinity in
  let first = ref 1 in
  while !first + chunk <= iters do
    best := Float.min !best (per_request_telemetry_chunk_s log m ~first:!first ~iters:chunk);
    first := !first + chunk
  done;
  !best

let bench_telemetry_tax ~requests ~tax_iters =
  let opts = { Service.default_pool_opts with Service.queue_depth = requests + 1 } in
  let log = Log.create ~level:Log.Debug () in
  let pool = Service.create_pool ~opts ~log ~handler:noop_handler () in
  let reqs =
    List.init requests (fun i -> { base_request with Service.seed = 2000 + i })
  in
  let best_batch_s = ref infinity in
  let _ =
    measure ~repeats:5 ~warmup:1 ~name:"instrumented-dispatch"
      ~params:[ ("workers", Json.Int opts.Service.workers) ]
      ~items:("req", float_of_int requests)
      ~telemetry:(fun n ->
        ( [
            ("requests_per_batch", n);
            ("requests_rejected",
             Metrics.counter (Service.pool_metrics pool) "service.requests_rejected");
          ],
          [] ))
      (fun () ->
        let t0 = Unix.gettimeofday () in
        let n = drain_requests pool reqs in
        best_batch_s := Float.min !best_batch_s (Unix.gettimeofday () -. t0);
        n)
  in
  Service.shutdown_pool pool;
  let dispatch_us = !best_batch_s /. float_of_int requests *. 1e6 in
  let tax_us = per_request_telemetry_s ~iters:tax_iters *. 1e6 in
  let fraction = tax_us /. dispatch_us in
  record "telemetry-tax"
    ~counters:[ ("overhead_within_5pct", if fraction < 0.05 then 1 else 0) ]
    ~floats:
      [
        ("tax_us_per_req", tax_us);
        ("dispatch_us_per_req", dispatch_us);
        ("overhead_fraction", fraction);
      ];
  Printf.printf
    "telemetry: %.2f us/req of logging+sketches on a %.0f us/req dispatch (%.2f%%)\n%!"
    tax_us dispatch_us (fraction *. 100.0)

let run ~quick () =
  bench_sketch_add ~n:(if quick then 50_000 else 200_000);
  bench_log_append ~n:(if quick then 20_000 else 100_000);
  bench_telemetry_tax
    ~requests:(if quick then 32 else 128)
    ~tax_iters:(if quick then 20_000 else 100_000)
