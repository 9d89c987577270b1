(* The distributed runtime's wire layer and worker pool.

   Layers under test:

   - Transport: frame round-trips (magic/version/CRC) over socketpairs,
     named sockets and TCP, per-operation deadlines, suppression of
     replayed frames by sequence number, and bounded jittered-backoff
     connect;
   - Failure_detector: suspicion timeline under an injected clock —
     fully deterministic, no sleeps;
   - Distributed: the fork-per-batch worker pool — index-ordered results,
     worker exceptions surfacing as typed Task_failed, graceful
     degradation (typed Degraded, never a hang) when every slot is
     partitioned, and recovery through stall/disconnect faults without
     double-applying a straggler's late reply;
   - the engine differential: Distributed tick-domain Obs exports must be
     byte-identical to Sequential on EN and EGJ (wall-domain transport
     metrics live in a separate registry);
   - chaos soak: EN at N=20 under random wire-fault plans (disconnect +
     stall + partition) on top of protocol faults must terminate with
     either an exact output or a typed fast-fail, with protocol-level
     recovery accounting identical to the same plan replayed in-process. *)

module Bitvec = Dstress_util.Bitvec
module Prng = Dstress_util.Prng
module Group = Dstress_crypto.Group
module Fault = Dstress_faults.Fault
module Obs = Dstress_obs.Obs
module Metrics = Dstress_obs.Obs.Metrics
module Reference = Dstress_risk.Reference
module En_program = Dstress_risk.En_program
module Egj_program = Dstress_risk.Egj_program
open Dstress_runtime

let grp = Group.by_name "toy"

(* ------------------------------------------------------------------ *)
(* Transport framing                                                   *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let m = Metrics.create () in
  let a, b = Transport.pair ~metrics:m () in
  let payload = Bytes.of_string "forty-two" in
  let seq = Transport.send a ~kind:Transport.Kind.task ~epoch:7 payload in
  Alcotest.(check int64) "first seq" 0L seq;
  (match Transport.recv b ~timeout:1.0 with
  | Some fr ->
      Alcotest.(check int) "kind" Transport.Kind.task fr.Transport.kind;
      Alcotest.(check int) "epoch" 7 fr.Transport.epoch;
      Alcotest.(check int64) "seq" 0L fr.Transport.seq;
      Alcotest.(check string) "payload" "forty-two" (Bytes.to_string fr.Transport.payload)
  | None -> Alcotest.fail "frame did not arrive");
  ignore (Transport.send a ~kind:Transport.Kind.ping ~epoch:7 Bytes.empty);
  (match Transport.recv b ~timeout:1.0 with
  | Some fr -> Alcotest.(check int64) "seq increments" 1L fr.Transport.seq
  | None -> Alcotest.fail "second frame did not arrive");
  Alcotest.(check int) "frames counted" 2 (Metrics.counter m "transport.frames_sent");
  Alcotest.(check bool) "bytes counted" true (Metrics.counter m "transport.bytes_sent" > 0);
  Transport.close a;
  Transport.close b

let test_recv_timeout_and_eof () =
  let a, b = Transport.pair () in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "empty recv times out to None" true
    (Transport.recv b ~timeout:0.05 = None);
  Alcotest.(check bool) "timeout respected" true (Unix.gettimeofday () -. t0 < 1.0);
  Transport.close a;
  (match Transport.recv b ~timeout:0.5 with
  | exception Transport.Error (Transport.Closed _) -> ()
  | _ -> Alcotest.fail "EOF must raise Closed");
  Transport.close b

let test_recv_zero_timeout_reads_ready_frame () =
  (* Every post-select drain polls with [~timeout:0.0]: once select has
     proved the socket readable, that poll must return the frame. *)
  let a, b = Transport.pair () in
  let misses = ref 0 in
  for _ = 1 to 5000 do
    ignore (Transport.send a ~kind:Transport.Kind.task ~epoch:0 Bytes.empty);
    ignore (Unix.select [ Transport.fd b ] [] [] 1.0);
    if Transport.recv b ~timeout:0.0 = None then begin
      incr misses;
      ignore (Transport.recv b ~timeout:1.0)
    end
  done;
  Alcotest.(check int) "no readable frame skipped" 0 !misses;
  Transport.close a;
  Transport.close b

let test_integrity_rejected () =
  let a, b = Transport.pair () in
  (* Write garbage straight onto the socket: the header check must refuse
     it rather than interpret it. *)
  let junk = Bytes.of_string "XXXXGARBAGEGARBAGEGARBAGEGARBAGEGARBAGE" in
  ignore (Unix.write (Transport.fd a) junk 0 (Bytes.length junk));
  (match Transport.recv b ~timeout:1.0 with
  | exception Transport.Error (Transport.Integrity msg) ->
      Alcotest.(check string) "bad magic detected" "bad magic" msg
  | _ -> Alcotest.fail "garbage must raise Integrity");
  Alcotest.(check int) "framing error counted" 1
    (Metrics.counter (Transport.metrics b) "transport.framing_errors");
  Transport.close a;
  Transport.close b

(* Read exactly [len] bytes off a non-blocking socket, bypassing the
   transport's framing. *)
let read_raw fd len =
  let buf = Bytes.create len in
  let got = ref 0 in
  while !got < len do
    (match Unix.select [ fd ] [] [] 2.0 with
    | [], _, _ -> Alcotest.fail "no bytes to capture"
    | _ -> ());
    match Unix.read fd buf !got (len - !got) with
    | 0 -> Alcotest.fail "EOF while capturing a frame"
    | n -> got := !got + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  done;
  buf

let test_dedup_drops_replay () =
  let m = Metrics.create () in
  let a, b = Transport.pair ~metrics:m () in
  (* Capture one frame's bytes off the wire and write them onto it twice,
     as a peer replaying old traffic would: the receiver must deliver
     that seq exactly once. *)
  ignore (Transport.send a ~kind:Transport.Kind.task ~epoch:1 (Bytes.of_string "one"));
  let frame = read_raw (Transport.fd b) (Metrics.counter m "transport.bytes_sent") in
  for _ = 1 to 2 do
    ignore (Unix.write (Transport.fd a) frame 0 (Bytes.length frame))
  done;
  let recv_frame () =
    match Transport.recv b ~timeout:1.0 with
    | Some fr -> (Bytes.to_string fr.Transport.payload, fr.Transport.seq)
    | None -> Alcotest.fail "expected a frame"
  in
  Alcotest.(check (pair string int64)) "first copy delivered" ("one", 0L) (recv_frame ());
  Alcotest.(check bool) "replay suppressed" true (Transport.recv b ~timeout:0.2 = None);
  Alcotest.(check int) "dup counted" 1 (Metrics.counter m "transport.dup_dropped");
  (* The next fresh seq still gets through. *)
  ignore (Transport.send a ~kind:Transport.Kind.task ~epoch:1 (Bytes.of_string "two"));
  Alcotest.(check (pair string int64)) "fresh frame delivered" ("two", 1L) (recv_frame ());
  Transport.close a;
  Transport.close b

let test_connect_backoff_bounded () =
  let m = Metrics.create () in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "dstress-no-such.sock" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let t0 = Unix.gettimeofday () in
  (match Transport.connect ~metrics:m ~attempts:3 ~backoff:0.005 ~path () with
  | exception Transport.Error (Transport.Timeout _) -> ()
  | _ -> Alcotest.fail "connect to nothing must raise Timeout");
  Alcotest.(check bool) "bounded retry returns promptly" true
    (Unix.gettimeofday () -. t0 < 2.0);
  Alcotest.(check int) "three attempts" 3 (Metrics.counter m "transport.connect_attempts");
  Alcotest.(check int) "two backoff sleeps" 2 (Metrics.counter m "transport.backoff_sleeps");
  Alcotest.(check bool) "sleep time recorded" true
    (Metrics.sum m "transport.backoff_sleep_s" > 0.0)

let test_named_socket_roundtrip () =
  let m = Metrics.create () in
  let dir = Filename.get_temp_dir_name () in
  let path = Filename.concat dir (Printf.sprintf "dstress-test-%d.sock" (Unix.getpid ())) in
  let lfd = Transport.listen ~path in
  let expect what conn ~kind ~epoch ~seq payload =
    match Transport.recv conn ~timeout:1.0 with
    | Some fr ->
        Alcotest.(check int) (what ^ " kind") kind fr.Transport.kind;
        Alcotest.(check int) (what ^ " epoch") epoch fr.Transport.epoch;
        Alcotest.(check int64) (what ^ " seq") seq fr.Transport.seq;
        Alcotest.(check string) (what ^ " payload") payload
          (Bytes.to_string fr.Transport.payload)
    | None -> Alcotest.fail (what ^ ": no frame")
  in
  (* Two connections in turn on one listener: each carries frames both
     ways, and the second starts its sequence afresh. *)
  for round = 1 to 2 do
    let client = Transport.connect ~metrics:m ~path () in
    let server = Transport.accept ~deadline:2.0 lfd in
    ignore (Transport.send client ~kind:Transport.Kind.task ~epoch:round (Bytes.of_string "a"));
    ignore (Transport.send client ~kind:Transport.Kind.task ~epoch:round (Bytes.of_string "b"));
    expect "client a" server ~kind:Transport.Kind.task ~epoch:round ~seq:0L "a";
    expect "client b" server ~kind:Transport.Kind.task ~epoch:round ~seq:1L "b";
    ignore (Transport.send server ~kind:Transport.Kind.result ~epoch:round (Bytes.of_string "ok"));
    expect "server reply" client ~kind:Transport.Kind.result ~epoch:round ~seq:0L "ok";
    Transport.close server;
    (match Transport.recv client ~timeout:1.0 with
    | exception Transport.Error (Transport.Closed _) -> ()
    | _ -> Alcotest.fail "server close must reach the client as Closed");
    Transport.close client
  done;
  Alcotest.(check int) "one attempt per connection" 2
    (Metrics.counter m "transport.connect_attempts");
  Alcotest.(check int) "no retries" 0 (Metrics.counter m "transport.reconnects");
  Unix.close lfd;
  (try Unix.unlink path with Unix.Unix_error _ -> ())

let contains_substring ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* TCP listener/connector: same frames, same deadline semantics        *)
(* ------------------------------------------------------------------ *)

let test_tcp_roundtrip () =
  let m = Metrics.create () in
  let lfd, port = Transport.listen_tcp ~host:"127.0.0.1" ~port:0 () in
  Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
  let client = Transport.connect_tcp ~metrics:m ~host:"127.0.0.1" ~port () in
  let server = Transport.accept ~deadline:2.0 lfd in
  ignore (Transport.send client ~kind:Transport.Kind.request ~epoch:5 (Bytes.of_string "over tcp"));
  (match Transport.recv server ~timeout:2.0 with
  | Some fr ->
      Alcotest.(check int) "kind" Transport.Kind.request fr.Transport.kind;
      Alcotest.(check int) "epoch" 5 fr.Transport.epoch;
      Alcotest.(check string) "payload survives CRC" "over tcp"
        (Bytes.to_string fr.Transport.payload)
  | None -> Alcotest.fail "frame did not arrive over TCP");
  ignore (Transport.send server ~kind:Transport.Kind.response ~epoch:5 (Bytes.of_string "back"));
  (match Transport.recv client ~timeout:2.0 with
  | Some fr -> Alcotest.(check string) "reply" "back" (Bytes.to_string fr.Transport.payload)
  | None -> Alcotest.fail "reply did not arrive over TCP");
  (* Both ends of the loopback connection got TCP_NODELAY. *)
  Alcotest.(check bool) "client nodelay" true
    (Unix.getsockopt (Transport.fd client) Unix.TCP_NODELAY);
  Alcotest.(check bool) "server nodelay" true
    (Unix.getsockopt (Transport.fd server) Unix.TCP_NODELAY);
  Alcotest.(check int) "one connect attempt" 1 (Metrics.counter m "transport.connect_attempts");
  Transport.close client;
  Transport.close server;
  Unix.close lfd

let test_tcp_accept_deadline () =
  (* A listener nobody connects to: accept must expire at its deadline —
     the exact behavior the daemon's select loop leans on — not hang. *)
  let lfd, _port = Transport.listen_tcp ~host:"127.0.0.1" ~port:0 () in
  let t0 = Unix.gettimeofday () in
  (match Transport.accept ~deadline:0.1 lfd with
  | exception Transport.Error (Transport.Timeout what) ->
      Alcotest.(check string) "typed accept timeout" "accept" what
  | _ -> Alcotest.fail "accept with no client must raise Timeout");
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "deadline respected" true (elapsed >= 0.09 && elapsed < 1.0);
  Unix.close lfd

let test_tcp_connect_backoff_bounded () =
  (* Bind then close to get a port that actively refuses connections;
     the retry loop must pay the same bounded, counted backoff as the
     Unix-socket connector. *)
  let lfd, port = Transport.listen_tcp ~host:"127.0.0.1" ~port:0 () in
  Unix.close lfd;
  let m = Metrics.create () in
  let t0 = Unix.gettimeofday () in
  (match Transport.connect_tcp ~metrics:m ~attempts:3 ~backoff:0.005 ~host:"127.0.0.1" ~port () with
  | exception Transport.Error (Transport.Timeout _) -> ()
  | _ -> Alcotest.fail "connect to a closed port must raise Timeout");
  Alcotest.(check bool) "bounded retry returns promptly" true
    (Unix.gettimeofday () -. t0 < 2.0);
  Alcotest.(check int) "three attempts" 3 (Metrics.counter m "transport.connect_attempts");
  Alcotest.(check int) "two backoff sleeps" 2 (Metrics.counter m "transport.backoff_sleeps");
  Alcotest.(check bool) "sleep time recorded" true
    (Metrics.sum m "transport.backoff_sleep_s" > 0.0);
  (* Unknown host is not transient: typed Closed, no retry burn. *)
  match Transport.connect_tcp ~host:"no-such-host-dstress.invalid" ~port:1 () with
  | exception Transport.Error (Transport.Closed msg) ->
      Alcotest.(check bool) "names the host" true
        (contains_substring ~sub:"no-such-host-dstress.invalid" msg)
  | _ -> Alcotest.fail "unresolvable host must raise Closed"

(* ------------------------------------------------------------------ *)
(* Failure detector (injected clock — no sleeps)                       *)
(* ------------------------------------------------------------------ *)

let test_detector_suspicion_timeline () =
  let det = Failure_detector.create ~phi:8.0 ~expected_interval:0.1 () in
  Alcotest.(check (float 0.0)) "silent before start" 0.0
    (Failure_detector.suspicion det ~now:100.0);
  Failure_detector.start det ~now:0.0;
  Alcotest.(check bool) "grace period" false (Failure_detector.suspected det ~now:0.5);
  Alcotest.(check bool) "no hello ever -> suspected" true
    (Failure_detector.suspected det ~now:1.0);
  let det = Failure_detector.create ~phi:8.0 ~expected_interval:0.1 () in
  Failure_detector.start det ~now:0.0;
  (* Regular heartbeats keep suspicion near 1. *)
  for i = 1 to 20 do
    Failure_detector.observe det ~now:(0.1 *. float_of_int i)
  done;
  Alcotest.(check bool) "healthy peer low" true
    (Failure_detector.suspicion det ~now:2.1 < 2.0);
  Alcotest.(check bool) "estimate near interval" true
    (abs_float (Failure_detector.interval_estimate det -. 0.1) < 0.02);
  (* Then silence: suspicion crosses phi after ~phi * interval. *)
  Alcotest.(check bool) "not yet" false (Failure_detector.suspected det ~now:2.5);
  Alcotest.(check bool) "suspected after silence" true
    (Failure_detector.suspected det ~now:3.0);
  (match Failure_detector.last_heard det with
  | Some t -> Alcotest.(check (float 1e-9)) "last heard" 2.0 t
  | None -> Alcotest.fail "expected arrivals")

let test_detector_burst_floor_and_clamp () =
  let det = Failure_detector.create ~phi:4.0 ~expected_interval:0.1 () in
  Failure_detector.start det ~now:0.0;
  (* A burst of instant heartbeats must not collapse the estimate below
     the floor (expected/4) and hair-trigger the detector... *)
  for _ = 1 to 50 do
    Failure_detector.observe det ~now:1.0
  done;
  Alcotest.(check bool) "estimate floored" true
    (Failure_detector.interval_estimate det >= 0.025 -. 1e-9);
  (* ...and a non-monotone arrival is clamped, never a negative gap. *)
  Failure_detector.observe det ~now:0.5;
  Alcotest.(check bool) "clock step clamped" true
    (Failure_detector.suspicion det ~now:1.0 >= 0.0);
  Alcotest.check_raises "phi <= 1 rejected"
    (Invalid_argument "Failure_detector.create: phi <= 1") (fun () ->
      ignore (Failure_detector.create ~phi:1.0 ~expected_interval:0.1 ()))

(* ------------------------------------------------------------------ *)
(* Distributed pool                                                    *)
(* ------------------------------------------------------------------ *)

let quick_opts =
  {
    Distributed.default_opts with
    Distributed.workers = 3;
    heartbeat_interval = 0.02;
    (* phi 6 over 20 ms heartbeats still suspects a stalled worker in
       well under a second, but tolerates scheduler hiccups on loaded CI
       machines that made phi 4 falsely suspect healthy workers. *)
    phi = 6.0;
    batch_deadline = 30.0;
  }

let test_pool_map_matches_sequential () =
  let ctx = Distributed.create ~opts:quick_opts () in
  let f i = (i, i * i, Printf.sprintf "task-%d" i) in
  let got = Distributed.map ctx 31 f in
  let want = Array.init 31 f in
  Alcotest.(check bool) "index-ordered results" true (got = want);
  Alcotest.(check int) "one batch" 1 (Distributed.batches_dispatched ctx);
  Alcotest.(check bool) "every task dispatched at least once" true
    (Metrics.counter (Distributed.metrics ctx) "pool.tasks_dispatched" >= 31);
  (* Empty batches don't fork anything. *)
  Alcotest.(check bool) "empty map" true (Distributed.map ctx 0 f = [||])

let test_pool_task_exception_is_typed () =
  let ctx = Distributed.create ~opts:{ quick_opts with Distributed.workers = 2 } () in
  (match Distributed.map ctx 6 (fun i -> if i = 4 then failwith "boom" else i) with
  | _ -> Alcotest.fail "expected Task_failed"
  | exception Distributed.Task_failed { index; message } ->
      Alcotest.(check int) "failing index" 4 index;
      Alcotest.(check bool) "message round-tripped" true
        (contains_substring ~sub:"boom" message))

let test_pool_degraded_fast_fail () =
  let opts =
    {
      quick_opts with
      Distributed.workers = 2;
      max_respawns_per_slot = 1;
      max_respawns_total = 6;
      batch_deadline = 20.0;
    }
  in
  let ctx = Distributed.create ~opts () in
  (* Every slot is partitioned for every batch: the pool must abandon all
     slots and fail fast with the typed report — not hang. *)
  Distributed.set_fault_source ctx (fun ~batch:_ ~worker ->
      [ Fault.Partition_worker { worker; from_batch = 0; until_batch = max_int } ]);
  let t0 = Unix.gettimeofday () in
  (match Distributed.map ctx 4 (fun i -> i) with
  | _ -> Alcotest.fail "expected Degraded"
  | exception Distributed.Degraded d ->
      Alcotest.(check int) "batch 0" 0 d.Distributed.batch;
      Alcotest.(check int) "nothing completed" 0 d.Distributed.completed;
      Alcotest.(check int) "count recorded" 4 d.Distributed.count;
      Alcotest.(check bool) "respawns attempted" true (d.Distributed.respawns > 0));
  Alcotest.(check bool) "failed fast, not at the deadline" true
    (Unix.gettimeofday () -. t0 < 15.0);
  let m = Distributed.metrics ctx in
  Alcotest.(check bool) "suspicions recorded" true (Metrics.counter m "pool.suspicions" > 0)

let test_pool_recovers_from_stall_and_disconnect () =
  let opts =
    {
      quick_opts with
      Distributed.workers = 2;
      max_respawns_per_slot = 2;
      max_respawns_total = 8;
    }
  in
  let ctx = Distributed.create ~opts () in
  (* Worker 0 severs its socket on its first task; worker 1 stalls well
     past the suspicion threshold (phi * 20ms = 80ms), so its slot is
     fenced and respawned while the straggler finishes in the background.
     Either way every task must complete exactly once, with the right
     value — a double-applied late reply would corrupt nothing here, but
     a fenced-epoch bug would surface as a wrong or missing result. *)
  Distributed.set_fault_source ctx (fun ~batch:_ ~worker ->
      if worker = 0 then [ Fault.Disconnect_worker { worker; batch = 0 } ]
      else [ Fault.Stall_worker { worker; batch = 0; seconds = 0.3 } ]);
  let f i =
    Unix.sleepf 0.01;
    i * 7
  in
  let got = Distributed.map ctx 24 f in
  Alcotest.(check bool) "all recovered" true (got = Array.init 24 (fun i -> i * 7));
  let m = Distributed.metrics ctx in
  Alcotest.(check bool) "disconnect seen" true
    (Metrics.counter m "pool.worker_disconnects" > 0);
  Alcotest.(check bool) "stall tripped suspicion" true
    (Metrics.counter m "pool.suspicions" > 0);
  Alcotest.(check bool) "slots respawned" true (Metrics.counter m "pool.respawns" > 0)

let test_pool_fence_drops_late_reply () =
  let ctx = Distributed.create ~opts:{ quick_opts with Distributed.workers = 2 } () in
  (* Worker 1 stalls its first task well past suspicion (phi * 20ms =
     120ms), so its slot is fenced and the task re-dispatched; the tasks
     are slow enough that the batch (~1.2 s) is still running when the
     stalled worker's reply arrives on its fenced connection. Applying
     that reply would complete a task twice. *)
  Distributed.set_fault_source ctx (fun ~batch:_ ~worker ->
      if worker = 1 then [ Fault.Stall_worker { worker; batch = 0; seconds = 0.5 } ] else []);
  let value i = (i, i * 13) in
  let got =
    Distributed.map ctx 60 (fun i ->
        Unix.sleepf 0.04;
        value i)
  in
  Alcotest.(check bool) "every result present once and correct" true
    (got = Array.init 60 value);
  let m = Distributed.metrics ctx in
  Alcotest.(check bool) "stall tripped suspicion" true (Metrics.counter m "pool.suspicions" > 0);
  Alcotest.(check bool) "late reply fenced" true (Metrics.counter m "transport.fenced_frames" >= 1)

(* ------------------------------------------------------------------ *)
(* Engine differential: Distributed == Sequential in the tick domain   *)
(* ------------------------------------------------------------------ *)

let small_economy =
  {
    Reference.en_n = 4;
    cash = [| 0.0; 12.0; 20.0; 8.0 |];
    debts = [ (0, 1, 15.0); (1, 2, 10.0); (2, 3, 12.0); (3, 0, 4.0) ];
  }

let en_fixture ?(iterations = 2) () =
  let graph = En_program.graph_of_instance small_economy in
  let d = Graph.max_degree graph in
  let p = En_program.make ~epsilon:50.0 ~sensitivity:1 ~noise_max:2 ~l:12 ~degree:d ~iterations () in
  let states = En_program.encode_instance small_economy ~graph ~l:12 ~degree:d ~scale:0.25 in
  (graph, d, p, states)

let egj_fixture () =
  let inst =
    {
      Reference.egj_n = 3;
      base_assets = [| 20.0; 70.0; 60.0 |];
      orig_val = [| 100.0; 100.0; 90.0 |];
      threshold = [| 80.0; 80.0; 72.0 |];
      penalty = [| 10.0; 10.0; 10.0 |];
      holdings = [ (0, 1, 0.3); (1, 0, 0.3); (1, 2, 0.2); (2, 1, 0.2) ];
    }
  in
  let graph = Egj_program.graph_of_instance inst in
  let d = max 1 (Graph.max_degree graph) in
  let p = Egj_program.make ~epsilon:50.0 ~sensitivity:1 ~noise_max:2 ~l:14 ~frac:4 ~degree:d ~iterations:2 () in
  let states = Egj_program.encode_instance inst ~graph ~l:14 ~frac:4 ~degree:d ~scale:1.0 in
  (graph, d, p, states)

let run_with ~executor ~seed ?(fault_plan = Fault.empty) (graph, d, p, states) =
  let cfg =
    { (Engine.default_config grp ~k:2 ~degree_bound:d ~seed) with
      Engine.executor; fault_plan; obs_level = Obs.Full }
  in
  Engine.run cfg p ~graph ~initial_states:states

let check_exports_equal label (a : Engine.report) (b : Engine.report) =
  Alcotest.(check int) (label ^ ": output") a.Engine.output b.Engine.output;
  Alcotest.(check string) (label ^ ": trace bytes") (Obs.trace_json a.Engine.obs)
    (Obs.trace_json b.Engine.obs);
  Alcotest.(check string) (label ^ ": metrics bytes") (Obs.metrics_json a.Engine.obs)
    (Obs.metrics_json b.Engine.obs);
  Alcotest.(check string) (label ^ ": metrics csv") (Obs.metrics_csv a.Engine.obs)
    (Obs.metrics_csv b.Engine.obs)

let distributed_exec ?(workers = 2) () =
  Executor.distributed ~opts:{ quick_opts with Distributed.workers } ()

let test_differential_en () =
  let fx = en_fixture () in
  let seq = run_with ~executor:Executor.sequential ~seed:"dist-diff-en" fx in
  let dist = run_with ~executor:(distributed_exec ()) ~seed:"dist-diff-en" fx in
  check_exports_equal "EN dist=seq" seq dist;
  (* Wall-domain transport counters exist, but in their own registry. *)
  (match dist.Engine.transport_metrics with
  | Some m -> Alcotest.(check bool) "frames flowed" true (Metrics.counter m "transport.frames_sent" > 0)
  | None -> Alcotest.fail "distributed run must expose transport metrics");
  Alcotest.(check bool) "sequential has no transport metrics" true
    (seq.Engine.transport_metrics = None)

let test_differential_egj () =
  let fx = egj_fixture () in
  let seq = run_with ~executor:Executor.sequential ~seed:"dist-diff-egj" fx in
  let dist = run_with ~executor:(distributed_exec ~workers:3 ()) ~seed:"dist-diff-egj" fx in
  check_exports_equal "EGJ dist=seq" seq dist

(* ------------------------------------------------------------------ *)
(* Chaos soak: EN N=20 under combined wire + protocol fault plans      *)
(* ------------------------------------------------------------------ *)

let n20_fixture () =
  let t = Prng.of_int 0x20AC in
  let topo = Dstress_graphgen.Topology.erdos_renyi t ~n:20 ~avg_degree:1.5 ~max_degree:3 in
  let inst = Dstress_graphgen.Banking.en_of_topology t topo () in
  let graph = En_program.graph_of_instance inst in
  let d = max 1 (Graph.max_degree graph) in
  let p = En_program.make ~epsilon:50.0 ~sensitivity:1 ~noise_max:2 ~l:10 ~degree:d ~iterations:2 () in
  let states = En_program.encode_instance inst ~graph ~l:10 ~degree:d ~scale:0.25 in
  (graph, d, p, states)

let protocol_counts (r : Engine.report) =
  List.filter (fun (k, _) -> not (Fault.is_wire k)) r.Engine.faults_injected

let test_chaos_soak () =
  let ((graph, _, _, _) as fx) = n20_fixture () in
  (* Protocol faults recovered by the §3.5/§3.6 machinery... *)
  let protocol_plan =
    Fault.random_plan ~seed:23 ~rounds:3 ~nodes:20 ~edges:(Graph.edges graph)
      { Fault.no_faults with miss = 0.05; drop = 0.03 }
    @ [ Fault.Crash_node { node = 3; from_round = 2; until_round = 3 } ]
  in
  (* ...the in-process oracle for what the distributed runs must still
     compute in the tick domain. *)
  let oracle = run_with ~executor:Executor.sequential ~seed:"soak" ~fault_plan:protocol_plan fx in
  let deadline = Unix.gettimeofday () +. 240.0 in
  let wire_fired = ref 0 in
  List.iter
    (fun seed ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "chaos soak overran its test-level deadline (seed %d)" seed;
        let wire_plan =
          Fault.random_wire_plan ~seed ~workers:3 ~batches:8
            { Fault.disconnect = 0.06; stall = 0.05; partition = 0.04 }
        in
        let executor =
          Executor.distributed
            ~opts:
              {
                quick_opts with
                Distributed.workers = 3;
                max_respawns_per_slot = 1;
                max_respawns_total = 10;
                batch_deadline = 60.0;
              }
            ()
        in
        match
          run_with ~executor ~seed:"soak" ~fault_plan:(protocol_plan @ wire_plan) fx
        with
        | r ->
            (* Success: the run absorbed the wire faults without a trace —
               byte-identical tick-domain exports and identical protocol
               recovery accounting. *)
            check_exports_equal (Printf.sprintf "soak seed %d" seed) oracle r;
            Alcotest.(check bool)
              (Printf.sprintf "soak seed %d: protocol accounting matches" seed)
              true
              (protocol_counts oracle = protocol_counts r);
            (* Wire firings never exceed the plan, and are consistent with
               replaying the same plan: a planned fault fires at most once. *)
            let planned k =
              List.length (List.filter (fun f -> Fault.kind_of f = k) wire_plan)
            in
            List.iter
              (fun (k, c) ->
                if Fault.is_wire k then begin
                  wire_fired := !wire_fired + c;
                  Alcotest.(check bool)
                    (Printf.sprintf "soak seed %d: %s firings within plan" seed
                       (Fault.kind_name k))
                    true (c <= planned k)
                end)
              r.Engine.faults_injected
        | exception Distributed.Degraded d ->
            (* Typed fast-fail is an acceptable outcome — but it must be a
               real degradation report, produced before the deadline. *)
            incr wire_fired;
            Alcotest.(check bool)
              (Printf.sprintf "soak seed %d: degradation is populated" seed)
              true
              (d.Distributed.reason <> "" && d.Distributed.count > 0))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "the soak actually exercised wire faults" true (!wire_fired > 0)

let () =
  Alcotest.run "transport"
    [
      ( "framing",
        [
          Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "recv timeout and EOF" `Quick test_recv_timeout_and_eof;
          Alcotest.test_case "poll returns a ready frame" `Quick
            test_recv_zero_timeout_reads_ready_frame;
          Alcotest.test_case "integrity rejected" `Quick test_integrity_rejected;
          Alcotest.test_case "dedup drops replay" `Quick test_dedup_drops_replay;
          Alcotest.test_case "connect backoff bounded" `Quick test_connect_backoff_bounded;
          Alcotest.test_case "named socket round-trip" `Quick test_named_socket_roundtrip;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "loopback round-trip" `Quick test_tcp_roundtrip;
          Alcotest.test_case "accept deadline expiry" `Quick test_tcp_accept_deadline;
          Alcotest.test_case "connect backoff bounded" `Quick test_tcp_connect_backoff_bounded;
        ] );
      ( "failure detector",
        [
          Alcotest.test_case "suspicion timeline" `Quick test_detector_suspicion_timeline;
          Alcotest.test_case "burst floor and clamp" `Quick test_detector_burst_floor_and_clamp;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick test_pool_map_matches_sequential;
          Alcotest.test_case "typed task failure" `Quick test_pool_task_exception_is_typed;
          Alcotest.test_case "degraded fast fail" `Quick test_pool_degraded_fast_fail;
          Alcotest.test_case "stall + disconnect recovery" `Quick
            test_pool_recovers_from_stall_and_disconnect;
          Alcotest.test_case "fence drops late reply" `Quick test_pool_fence_drops_late_reply;
        ] );
      ( "engine differential",
        [
          Alcotest.test_case "EN exports byte-identical" `Quick test_differential_en;
          Alcotest.test_case "EGJ exports byte-identical" `Quick test_differential_egj;
        ] );
      ("chaos", [ Alcotest.test_case "EN n20 wire-fault soak" `Slow test_chaos_soak ]);
    ]
