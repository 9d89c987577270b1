(* Live service telemetry: quantile sketches, structured logging,
   request tracing and the Stats admin endpoint.

   Layers under test:

   - Sketch: DDSketch-style log-bucketed quantile histograms — exact
     count/total/min/max, bounded relative error on quantiles (qcheck
     against the exact order statistic), and lossless merging (a merge
     of two sketches is bucket-identical to a sketch of the
     concatenated stream, hence associative and commutative);
   - Log: leveled filtering, the bounded ring (eviction, total/dropped,
     oldest-first tail), deterministic logfmt rendering under an
     injected clock, and sink delivery;
   - Metrics: the Quantiles kind — observe_sketch/sketch accessors,
     merge semantics and the percentile-aware CSV/JSON row shapes;
   - Stats codec: JSON round-trip of a hand-built snapshot plus golden
     files for the JSON document and the Prometheus text exposition. To
     regenerate after an intentional change, run (from the repo root; the
     variable names the golden directory, and this suite writes only
     stats_snapshot.{json,prom} there):

       DSTRESS_REGEN_GOLDEN=$PWD/test/golden dune exec test/test_telemetry.exe

     and commit the updated files;
   - pool: end-to-end stats over a live pool (counters, latency
     sketches, worker states, queue gauges), per-request trace IDs on
     every log line, and the slow-request warning;
   - wire: fetch_stats against a forked responder process;
   - differential: tick-domain engine exports are byte-identical for a
     sequential run, the same run served by a persistent pool logging at
     Debug, and a parallel run.

   Fork-before-domain ordering: the pool/wire suites fork, and the
   differential suite runs its pool (forking) case before its parallel
   (domain-spawning) case, which is the last fork-relevant test in the
   binary. *)

module Group = Dstress_crypto.Group
module Metrics = Dstress_obs.Obs.Metrics
module Sketch = Dstress_obs.Sketch
module Log = Dstress_obs.Log
module Json = Dstress_obs.Json
module Banking = Dstress_graphgen.Banking
module Query = Dstress_graphgen.Query
open Dstress_runtime

let grp = Group.by_name "toy"

(* ------------------------------------------------------------------ *)
(* Sketch: accuracy and merging                                        *)
(* ------------------------------------------------------------------ *)

let exact_quantile sorted q =
  let n = Array.length sorted in
  sorted.(int_of_float (q *. float_of_int (n - 1)))

let check_relative_error values q est =
  let sorted = Array.of_list values in
  Array.sort compare sorted;
  let exact = exact_quantile sorted q in
  (* DDSketch guarantee: the estimate lies within alpha relative error
     of *some* sample rank-adjacent to the target; against the exact
     order statistic a small slack on top of alpha covers bucket
     boundary ties. *)
  let tol = (Sketch.relative_error +. 1e-9) *. Float.max (Float.abs exact) 1e-12 in
  Float.abs (est -. exact) <= tol

let test_sketch_basics () =
  let s = Sketch.create () in
  Alcotest.(check int) "fresh sketch is empty" 0 (Sketch.count s);
  Alcotest.(check bool) "empty quantile is None" true (Sketch.quantile s 0.5 = None);
  Alcotest.(check (float 0.0)) "empty quantile_or default" 7.0
    (Sketch.quantile_or ~default:7.0 s 0.5);
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Sketch.mean s);
  for i = 1 to 1000 do
    Sketch.add s (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Sketch.count s);
  Alcotest.(check (float 1e-9)) "total is exact" 500500.0 (Sketch.total s);
  Alcotest.(check (float 0.0)) "min is exact" 1.0 (Sketch.min_value s);
  Alcotest.(check (float 0.0)) "max is exact" 1000.0 (Sketch.max_value s);
  let values = List.init 1000 (fun i -> float_of_int (i + 1)) in
  List.iter
    (fun q ->
      let est = Sketch.quantile_or ~default:nan s q in
      Alcotest.(check bool)
        (Printf.sprintf "p%g within alpha" (q *. 100.))
        true
        (check_relative_error values q est))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  (match Sketch.quantile s 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "quantile beyond [0,1] must raise");
  (* Non-finite values are ignored; zero and negatives go to the zero
     bucket rather than the log scale. *)
  let z = Sketch.create () in
  Sketch.add z nan;
  Sketch.add z infinity;
  Alcotest.(check int) "non-finite ignored" 0 (Sketch.count z);
  Sketch.add z 0.0;
  Sketch.add z (-3.0);
  Alcotest.(check int) "zero bucket counted" 2 (Sketch.count z);
  Alcotest.(check (float 0.0)) "zero-bucket quantile" 0.0
    (Sketch.quantile_or ~default:nan z 0.5)

let positive_values_arb =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 200)
        (map (fun (m, e) -> Float.abs m *. (10.0 ** float_of_int e))
           (pair (float_range 0.1 10.0) (int_range (-5) 6))))
  in
  QCheck.make
    ~print:(fun vs -> String.concat "," (List.map string_of_float vs))
    gen

let sketch_of values =
  let s = Sketch.create () in
  List.iter (Sketch.add s) values;
  s

let sketch_equal a b =
  Sketch.count a = Sketch.count b
  && Sketch.buckets a = Sketch.buckets b
  && Float.abs (Sketch.total a -. Sketch.total b) <= 1e-9 *. (1.0 +. Float.abs (Sketch.total a))
  && Sketch.min_value a = Sketch.min_value b
  && Sketch.max_value a = Sketch.max_value b

let test_sketch_merge_misc () =
  let a = sketch_of [ 1.0; 2.0 ] in
  let b = sketch_of [ 3.0 ] in
  let c = Sketch.merge a b in
  Alcotest.(check int) "merge is a copy" 2 (Sketch.count a);
  Alcotest.(check int) "merged count" 3 (Sketch.count c);
  Sketch.merge_into ~dst:a (Sketch.create ());
  Alcotest.(check int) "merging empty is a no-op" 2 (Sketch.count a)

(* ------------------------------------------------------------------ *)
(* Log: levels, ring, rendering                                        *)
(* ------------------------------------------------------------------ *)

let test_log_levels_and_ring () =
  let log = Log.create ~level:Log.Info ~clock:(fun () -> 1.0) () in
  Alcotest.(check bool) "info enabled" true (Log.enabled log Log.Info);
  Alcotest.(check bool) "debug filtered" false (Log.enabled log Log.Debug);
  Log.debug log "invisible" [];
  Alcotest.(check int) "filtered events not counted" 0 (Log.total log);
  (* The ring holds 256 events. *)
  for i = 1 to 258 do
    Log.info log (Printf.sprintf "m%d" i) []
  done;
  Alcotest.(check int) "total counts accepted" 258 (Log.total log);
  Alcotest.(check int) "eviction counted" 2 (Log.dropped log);
  Alcotest.(check (list string)) "tail is oldest-first, bounded by ring"
    (List.init 256 (fun i -> Printf.sprintf "m%d" (i + 3)))
    (List.map (fun (e : Log.event) -> e.Log.msg) (Log.tail log));
  Alcotest.(check (list string)) "tail ~max keeps newest"
    [ "m257"; "m258" ]
    (List.map (fun (e : Log.event) -> e.Log.msg) (Log.tail ~max:2 log));
  (* The shared nop logger records nothing. *)
  Log.error Log.nop "void" [];
  Alcotest.(check bool) "nop never enables" false (Log.enabled Log.nop Log.Error);
  Alcotest.(check int) "nop records nothing" 0 (Log.total Log.nop)

let test_log_render_golden () =
  let sunk = ref [] in
  let log =
    Log.create ~level:Log.Debug ~clock:(fun () -> 1234.5) ~sink:(fun e -> sunk := e :: !sunk) ()
  in
  Log.info log "request finished"
    [ ("id", Log.Int 3); ("outcome", Log.Str "completed"); ("seconds", Log.Float 0.25) ];
  Log.warn log ~trace:0xbeefL "slow request"
    [ ("quoted", Log.Str "a \"b\"\nc\\d"); ("live", Log.Bool true) ];
  (match List.rev !sunk |> List.map Log.render with
  | [ first; second ] ->
      Alcotest.(check string) "plain line"
        "ts=1234.500000 level=info msg=\"request finished\" id=3 outcome=\"completed\" seconds=0.25"
        first;
      Alcotest.(check string) "traced line with escapes"
        "ts=1234.500000 level=warn trace=beef msg=\"slow request\" quoted=\"a \\\"b\\\"\\nc\\\\d\" live=true"
        second
  | evs -> Alcotest.failf "sink saw %d events, wanted 2" (List.length evs))

let test_log_sink_failure_swallowed () =
  let log = Log.create ~level:Log.Info ~sink:(fun _ -> failwith "bad sink") () in
  Log.info log "survives" [];
  Alcotest.(check int) "event still recorded" 1 (Log.total log)

(* ------------------------------------------------------------------ *)
(* Metrics: the Quantiles kind                                         *)
(* ------------------------------------------------------------------ *)

let test_metrics_quantiles () =
  let m = Metrics.create () in
  List.iter (Metrics.observe_sketch m "lat") [ 0.5; 1.0; 2.0; 4.0 ];
  let count m name =
    match Metrics.find m name with
    | Some (Metrics.Quantiles s) -> Sketch.count s
    | _ -> Alcotest.fail "sketch must exist"
  in
  Alcotest.(check int) "sketch recorded" 4 (count m "lat");
  Alcotest.(check bool) "absent sketch is None" true (Metrics.find m "nope" = None);
  (match Metrics.incr m "lat" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "kind mixing must raise");
  (* merge_into copies, so mutating the source later must not leak. *)
  let dst = Metrics.create () in
  Metrics.merge_into ~dst m;
  Metrics.observe_sketch m "lat" 100.0;
  Alcotest.(check int) "merge copied the sketch" 4 (count dst "lat");
  Metrics.merge_into ~dst m;
  Alcotest.(check int) "second merge folds in" 9 (count dst "lat")

let test_metrics_quantiles_rows () =
  let m = Metrics.create () in
  List.iter (Metrics.observe_sketch m "q") [ 1.0; 2.0; 4.0 ];
  Metrics.incr m "c";
  match Json.member "q" (Metrics.to_json m) with
  | Some j ->
      List.iter
        (fun key ->
          Alcotest.(check bool) ("json has " ^ key) true (Json.member key j <> None))
        [ "count"; "total"; "mean"; "min"; "max"; "p50"; "p90"; "p99" ];
      Alcotest.(check bool) "count 3" true (Json.member "count" j = Some (Json.Int 3));
      Alcotest.(check bool) "total 7" true (Json.member "total" j = Some (Json.Num 7.0))
  | None -> Alcotest.fail "sketch missing from metrics json"

(* ------------------------------------------------------------------ *)
(* Stats codec: round-trip and goldens                                 *)
(* ------------------------------------------------------------------ *)

let fixture_stats =
  {
    Service.uptime_s = 12.5;
    queue_depth = 1;
    queue_high_water = 3;
    queue_capacity = 64;
    workers =
      [
        {
          Service.w_slot = 0;
          w_pid = 4242;
          w_state = "busy";
          w_respawns = 1;
          w_trace = 0x2aL;
        };
        {
          Service.w_slot = 1;
          w_pid = 4243;
          w_state = "idle";
          w_respawns = 0;
          w_trace = 0L;
        };
      ];
    counters =
      [
        ("service.requests_completed", 7);
        ("service.requests_enqueued", 9);
        ("transport.frames_sent", 40);
      ];
    latencies =
      [
        ( "service.request_s",
          {
            Service.l_count = 7;
            l_total = 3.5;
            l_mean = 0.5;
            l_min = 0.125;
            l_max = 1.25;
            l_p50 = 0.5;
            l_p90 = 1.0;
            l_p99 = 1.25;
          } );
      ];
    log_tail = [ "ts=1.000000 level=info msg=\"worker spawned\" pid=4242" ];
  }

let test_stats_roundtrip () =
  let bytes = Service.encode_stats fixture_stats in
  (match Service.decode_stats bytes with
  | Ok st -> Alcotest.(check bool) "wire round-trip" true (st = fixture_stats)
  | Error m -> Alcotest.failf "decode failed: %s" m);
  (match Service.decode_stats (Bytes.of_string "not json") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not decode");
  match
    Service.stats_of_json
      (Json.Obj [ ("schema", Json.Str "dstress-stats/999") ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong schema must not decode"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden ~name current =
  match Sys.getenv_opt "DSTRESS_REGEN_GOLDEN" with
  | Some dir ->
      let path = Filename.concat dir name in
      let oc = open_out_bin path in
      output_string oc current;
      close_out oc;
      Printf.printf "regenerated %s\n" path
  | None ->
      (* Under `dune runtest` the cwd is the test directory (the dune
         [deps] copy); under a bare `dune exec` it is the repo root. *)
      let dir = if Sys.file_exists "golden" then "golden" else "test/golden" in
      let expected = read_file (Filename.concat dir name) in
      if String.trim expected = "" then
        Alcotest.fail "golden file is the placeholder; regenerate it (see header)"
      else Alcotest.(check string) name expected current

let test_stats_golden_json () =
  check_golden ~name:"stats_snapshot.json"
    (Json.to_string (Service.stats_to_json fixture_stats))

let test_stats_golden_prometheus () =
  check_golden ~name:"stats_snapshot.prom" (Service.stats_prometheus fixture_stats)

(* ------------------------------------------------------------------ *)
(* Pool: live stats, tracing, slow requests                            *)
(* ------------------------------------------------------------------ *)

let tiny_summary =
  {
    Service.output = 7;
    mpc_rounds = 1;
    mpc_and_gates = 2;
    mpc_ots = 3;
    trace = "{}";
    metrics = "{}";
  }

let tiny_request =
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

let pool_opts = { Service.default_pool_opts with Service.workers = 2 }

(* Parent-side events only: worker processes log into their own forked
   copy of the ring. The sink runs under the log mutex, on the pool's
   own thread. *)
let collecting_log ?(level = Log.Debug) () =
  let events = ref [] in
  let log = Log.create ~level ~sink:(fun e -> events := e :: !events) () in
  (log, fun () -> List.rev !events)

let submit_n pool n =
  let pending = ref n in
  for _ = 1 to n do
    match Service.submit pool tiny_request (fun _ -> decr pending) with
    | `Queued -> ()
    | `Queue_full | `No_workers -> Alcotest.fail "submit rejected"
  done;
  let until = Unix.gettimeofday () +. 60.0 in
  while !pending > 0 && Unix.gettimeofday () < until do
    Service.pool_step pool ~timeout:0.05
  done;
  Alcotest.(check int) "all requests resolved" 0 !pending

let test_pool_stats_end_to_end () =
  let log, events = collecting_log () in
  let pool = Service.create_pool ~opts:pool_opts ~log ~handler:(fun _ -> Ok tiny_summary) () in
  submit_n pool 3;
  let st = Service.pool_stats pool in
  Alcotest.(check bool) "uptime advanced" true (st.Service.uptime_s > 0.0);
  Alcotest.(check int) "queue drained" 0 st.Service.queue_depth;
  Alcotest.(check bool) "high water observed" true (st.Service.queue_high_water >= 1);
  Alcotest.(check int) "capacity echoed" pool_opts.Service.queue_depth
    st.Service.queue_capacity;
  Alcotest.(check int) "one stat per slot" 2 (List.length st.Service.workers);
  List.iter
    (fun w ->
      Alcotest.(check string) "worker idle after drain" "idle" w.Service.w_state;
      Alcotest.(check bool) "live pid" true (w.Service.w_pid > 0);
      Alcotest.(check int) "no respawns" 0 w.Service.w_respawns)
    st.Service.workers;
  Alcotest.(check int) "completed counter" 3
    (List.assoc "service.requests_completed" st.Service.counters);
  Alcotest.(check int) "enqueued counter" 3
    (List.assoc "service.requests_enqueued" st.Service.counters);
  let lat = List.assoc "service.request_s" st.Service.latencies in
  Alcotest.(check int) "latency count" 3 lat.Service.l_count;
  Alcotest.(check bool) "nonzero quantiles" true
    (lat.Service.l_p50 > 0.0 && lat.Service.l_p99 >= lat.Service.l_p50);
  Alcotest.(check bool) "queue-wait sketch present" true
    (List.mem_assoc "service.queue_wait_s" st.Service.latencies);
  Alcotest.(check bool) "dispatch sketch present" true
    (List.mem_assoc "service.dispatch_s" st.Service.latencies);
  Alcotest.(check bool) "log tail populated" true (st.Service.log_tail <> []);
  (* Every request got a distinct nonzero trace, stamped on its whole
     lifecycle: enqueue, dispatch and finish lines share it. *)
  let evs = events () in
  let traces_of msg =
    List.filter_map
      (fun (e : Log.event) -> if e.Log.msg = msg then Some e.Log.trace else None)
      evs
    |> List.sort_uniq compare
  in
  let enqueued = traces_of "request enqueued" in
  Alcotest.(check int) "three distinct enqueue traces" 3 (List.length enqueued);
  Alcotest.(check bool) "traces are nonzero" true (List.for_all (fun t -> t <> 0L) enqueued);
  Alcotest.(check (list int64)) "dispatch traces match" enqueued
    (traces_of "request dispatched");
  Alcotest.(check (list int64)) "finish traces match" enqueued
    (traces_of "request finished");
  Service.shutdown_pool pool;
  let st = Service.pool_stats pool in
  Alcotest.(check bool) "stats still snapshot after shutdown" true
    (List.assoc "service.requests_completed" st.Service.counters = 3)

let test_pool_slow_request_logged () =
  let log, events = collecting_log ~level:Log.Warn () in
  let opts = { pool_opts with Service.slow_request_s = 0.0 } in
  let pool = Service.create_pool ~opts ~log ~handler:(fun _ -> Ok tiny_summary) () in
  submit_n pool 1;
  let slow =
    List.filter
      (fun (e : Log.event) -> e.Log.level = Log.Warn && e.Log.msg = "slow request")
      (events ())
  in
  Alcotest.(check int) "slow-request warning emitted" 1 (List.length slow);
  List.iter
    (fun (e : Log.event) ->
      Alcotest.(check bool) "slow line is traced" true (e.Log.trace <> 0L))
    slow;
  Service.shutdown_pool pool

(* ------------------------------------------------------------------ *)
(* Socket: fetch_stats against a forked responder                      *)
(* ------------------------------------------------------------------ *)

let test_fetch_stats_wire () =
  let client, server = Transport.pair () in
  match Unix.fork () with
  | 0 ->
      (* Child: answer exactly one Stats admin request, as drain_client
         does, then vanish without running the parent's at_exit. *)
      let code =
        match Transport.recv server ~timeout:10.0 with
        | Some fr when fr.Transport.kind = Transport.Kind.stats ->
            Transport.send server ~kind:Transport.Kind.stats_reply
              (Service.encode_stats fixture_stats);
            0
        | _ -> 1
      in
      Unix._exit code
  | pid ->
      let st = Service.fetch_stats ~timeout:10.0 client in
      Alcotest.(check bool) "snapshot survives the wire" true (st = fixture_stats);
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "responder exited cleanly" true (status = Unix.WEXITED 0);
      Transport.close client;
      Transport.close server

(* ------------------------------------------------------------------ *)
(* Differential: logging must not touch tick-domain exports            *)
(* ------------------------------------------------------------------ *)

(* `dstress serve`'s handler at its defaults. *)
let handler = Query.handler ~grp ~epsilon:1.0 ~shock:Banking.Cascade

let check_exports_equal label (want : Service.summary) (got : Service.summary) =
  Alcotest.(check int) (label ^ ": output") want.Service.output got.Service.output;
  Alcotest.(check string) (label ^ ": trace bytes") want.Service.trace got.Service.trace;
  Alcotest.(check string) (label ^ ": metrics bytes") want.Service.metrics got.Service.metrics

let test_differential_logging () =
  let seq = Result.get_ok (handler tiny_request) in
  (* The pool forks, so it runs before the parallel case spawns domains.
     Its worker serves the request's Full-level exports while the pool
     logs at Debug. *)
  let log, events = collecting_log () in
  let pool = Service.create_pool ~opts:pool_opts ~log ~handler () in
  let reply = ref None in
  (match Service.submit pool tiny_request (fun r -> reply := Some r) with
  | `Queued -> ()
  | `Queue_full | `No_workers -> Alcotest.fail "submit rejected");
  let until = Unix.gettimeofday () +. 60.0 in
  while !reply = None && Unix.gettimeofday () < until do
    Service.pool_step pool ~timeout:0.05
  done;
  Service.shutdown_pool pool;
  (match !reply with
  | Some (Service.Completed got) -> check_exports_equal "pool, logging on at debug" seq got
  | _ -> Alcotest.fail "the pool request did not complete");
  Alcotest.(check bool) "the logger actually saw pool events" true (events () <> []);
  let par = Result.get_ok (handler { tiny_request with Service.executor = "parallel:3" }) in
  check_exports_equal "parallel" seq par

(* ------------------------------------------------------------------ *)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "telemetry"
    [
      ( "sketch",
        [
          Alcotest.test_case "basics and accuracy" `Quick test_sketch_basics;
          Alcotest.test_case "merge misc" `Quick test_sketch_merge_misc;
        ]
        @ qsuite
            [
              QCheck.Test.make ~count:200 ~name:"quantiles within relative error"
                positive_values_arb (fun values ->
                  let s = Sketch.create () in
                  List.iter (Sketch.add s) values;
                  List.for_all
                    (fun q ->
                      check_relative_error values q
                        (Sketch.quantile_or ~default:nan s q))
                    [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]);
              QCheck.Test.make ~count:100
                ~name:"merge associates and matches the stream"
                QCheck.(triple positive_values_arb positive_values_arb positive_values_arb)
                (fun (xs, ys, zs) ->
                  let merged_lr =
                    Sketch.merge (Sketch.merge (sketch_of xs) (sketch_of ys)) (sketch_of zs)
                  in
                  let merged_rl =
                    Sketch.merge (sketch_of xs) (Sketch.merge (sketch_of ys) (sketch_of zs))
                  in
                  let direct = sketch_of (xs @ ys @ zs) in
                  sketch_equal merged_lr direct && sketch_equal merged_rl direct);
            ] );
      ( "log",
        [
          Alcotest.test_case "levels and ring" `Quick test_log_levels_and_ring;
          Alcotest.test_case "render golden" `Quick test_log_render_golden;
          Alcotest.test_case "sink failure swallowed" `Quick test_log_sink_failure_swallowed;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "quantiles kind" `Quick test_metrics_quantiles;
          Alcotest.test_case "csv and json rows" `Quick test_metrics_quantiles_rows;
        ] );
      ( "stats codec",
        [
          Alcotest.test_case "wire round-trip" `Quick test_stats_roundtrip;
          Alcotest.test_case "golden json" `Quick test_stats_golden_json;
          Alcotest.test_case "golden prometheus" `Quick test_stats_golden_prometheus;
        ] );
      ( "pool",
        [
          Alcotest.test_case "stats end to end" `Quick test_pool_stats_end_to_end;
          Alcotest.test_case "slow request logged" `Quick test_pool_slow_request_logged;
        ] );
      ( "wire",
        [ Alcotest.test_case "fetch_stats round-trip" `Quick test_fetch_stats_wire ] );
      ( "differential",
        [
          Alcotest.test_case "exports byte-identical with logging on" `Quick
            test_differential_logging;
        ] );
    ]
