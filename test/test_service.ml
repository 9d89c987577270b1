(* Daemon mode: the DSTRESS-REQ/1 codec, the persistent worker pool and
   the serve loop.

   Layers under test:

   - wire format: golden byte fixtures for request/response encodings,
     qcheck round-trip properties, and rejection of malformed payloads
     (bad magic, bad version, unknown tags, truncated and oversized
     bodies) plus frame-level garbage and CRC corruption against a live
     daemon;
   - pool differential: concurrent requests through the persistent pool
     must return summaries — output, counters and tick-domain Obs export
     bytes — identical to a solo sequential run of the same seeded
     config, whichever in-worker executor the request names. The pool,
     chaos and daemon cases all serve real clearing queries with
     [Query.handler], the handler `dstress serve` ships, at its
     defaults (epsilon 1, cascade shock);
   - one wire fault at a time: a disconnected worker is respawned and
     its request completes; a lost worker (stalled past suspicion, or
     wedged past the request deadline) is killed and reaped by the pool
     and never replies; and partitioning every slot degrades every
     request, abandons every slot and leaves the pool refusing
     submissions ([`No_workers]);
   - lifecycle chaos: a seeded soak killing/stalling/partitioning
     persistent workers mid-request; every submission must terminate
     with a typed outcome (never a hang), and completed ones must still
     match the solo oracle byte for byte;
   - daemon end-to-end: concurrent clients over Unix-socket and TCP
     listeners, typed backpressure, and graceful SIGTERM drain (the
     in-flight request completes, the daemon exits 0).

   Fork-before-domain ordering: everything here forks (pool workers,
   daemon children) and nothing spawns a domain in the test process
   itself — solo oracles always run on the sequential executor, and
   parallel[:N] requests spawn their domains inside a forked worker. *)

module Hex = Dstress_util.Hex
module Group = Dstress_crypto.Group
module Ot_ext = Dstress_crypto.Ot_ext
module Prng = Dstress_util.Prng
module Metrics = Dstress_obs.Obs.Metrics
module Query = Dstress_graphgen.Query
open Dstress_runtime

let grp = Group.by_name "toy"

let contains_substring ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* DSTRESS-REQ/1: golden fixtures                                      *)
(* ------------------------------------------------------------------ *)

let golden_request =
  {
    Service.workload = Service.Egj;
    core = 3;
    periphery = 5;
    iterations = 4;
    k = 2;
    seed = 42;
    slice_width = 16;
    ot_mode = Ot_ext.Crypto;
    preprocess = true;
    executor = "parallel:3";
  }

(* DREQ | version 1 | workload egj | ot crypto | flags preprocess |
   seed 42 | core 3 | periphery 5 | iterations 4 | k 2 | slice 16 |
   len 10 | "parallel:3" — all little-endian. *)
let golden_request_hex =
  "44524551" ^ "01" ^ "01" ^ "01" ^ "01" ^ "2a00000000000000" ^ "03000000" ^ "05000000"
  ^ "04000000" ^ "02000000" ^ "10000000" ^ "0a00" ^ "706172616c6c656c3a33"

let golden_summary =
  {
    Service.output = 7;
    mpc_rounds = 2;
    mpc_and_gates = 3;
    mpc_ots = 4;
    trace = "[]";
    metrics = "{}";
  }

(* DRSP | version 1 | status completed | output 7 | rounds 2 | gates 3 |
   OTs 4 | trace "[]" | metrics "{}". *)
let golden_completed_hex =
  "44525350" ^ "01" ^ "00" ^ "0700000000000000" ^ "0200000000000000" ^ "0300000000000000"
  ^ "0400000000000000" ^ "02000000" ^ "5b5d" ^ "02000000" ^ "7b7d"

(* DRSP | version 1 | status rejected | message "nope". *)
let golden_rejected_hex = "44525350" ^ "01" ^ "01" ^ "04000000" ^ "6e6f7065"

let test_golden_request () =
  Alcotest.(check bytes)
    "request bytes" (Hex.decode golden_request_hex)
    (Service.encode_request golden_request);
  match Service.decode_request (Hex.decode golden_request_hex) with
  | Ok r -> Alcotest.(check bool) "golden decodes back" true (r = golden_request)
  | Error e -> Alcotest.failf "golden request must decode: %s" e

let test_golden_response () =
  Alcotest.(check bytes)
    "completed bytes" (Hex.decode golden_completed_hex)
    (Service.encode_response (Service.Completed golden_summary));
  Alcotest.(check bytes)
    "rejected bytes" (Hex.decode golden_rejected_hex)
    (Service.encode_response (Service.Rejected "nope"));
  (match Service.decode_response (Hex.decode golden_completed_hex) with
  | Ok (Service.Completed s) ->
      Alcotest.(check bool) "summary round" true (s = golden_summary)
  | _ -> Alcotest.fail "golden completed must decode");
  match Service.decode_response (Hex.decode golden_rejected_hex) with
  | Ok (Service.Rejected m) -> Alcotest.(check string) "message" "nope" m
  | _ -> Alcotest.fail "golden rejected must decode"

(* ------------------------------------------------------------------ *)
(* DSTRESS-REQ/1: malformed payloads                                   *)
(* ------------------------------------------------------------------ *)

let expect_decode_error label what = function
  | Error e ->
      Alcotest.(check bool)
        (label ^ ": mentions " ^ what)
        true (contains_substring ~sub:what e)
  | Ok _ -> Alcotest.failf "%s: malformed payload must be rejected" label

let with_byte b i v =
  let c = Bytes.copy b in
  Bytes.set c i (Char.chr v);
  c

let test_malformed_request () =
  let good = Service.encode_request golden_request in
  expect_decode_error "bad magic" "magic"
    (Service.decode_request (with_byte good 0 0x58));
  expect_decode_error "bad version" "version"
    (Service.decode_request (with_byte good 4 9));
  expect_decode_error "unknown workload" "workload"
    (Service.decode_request (with_byte good 5 7));
  expect_decode_error "unknown ot" "OT mode" (Service.decode_request (with_byte good 6 9));
  (* Truncations at every prefix length must reject, never read junk. *)
  for len = 0 to Bytes.length good - 1 do
    match Service.decode_request (Bytes.sub good 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d bytes must be rejected" len
  done;
  expect_decode_error "trailing bytes" "trailing"
    (Service.decode_request (Bytes.cat good (Bytes.make 1 'x')))

let test_malformed_response () =
  let good = Service.encode_response (Service.Completed golden_summary) in
  expect_decode_error "bad magic" "magic"
    (Service.decode_response (with_byte good 0 0x58));
  expect_decode_error "bad version" "version"
    (Service.decode_response (with_byte good 4 9));
  expect_decode_error "unknown status" "status"
    (Service.decode_response (with_byte good 5 9));
  for len = 0 to Bytes.length good - 1 do
    match Service.decode_response (Bytes.sub good 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d bytes must be rejected" len
  done;
  expect_decode_error "trailing bytes" "trailing"
    (Service.decode_response (Bytes.cat good (Bytes.make 1 'x')))

let test_validate_request () =
  let ok r = Service.validate_request r = Ok () in
  Alcotest.(check bool) "golden valid" true (ok golden_request);
  Alcotest.(check bool) "zero core" false (ok { golden_request with Service.core = 0 });
  Alcotest.(check bool) "zero iterations" false
    (ok { golden_request with Service.iterations = 0 });
  Alcotest.(check bool) "slice 0" false
    (ok { golden_request with Service.slice_width = 0 });
  Alcotest.(check bool) "slice 65" false
    (ok { golden_request with Service.slice_width = 65 });
  Alcotest.(check bool) "huge network" false
    (ok { golden_request with Service.core = 4096; periphery = 4096 });
  Alcotest.(check bool) "bogus executor" false
    (ok { golden_request with Service.executor = "bogus:seven" });
  Alcotest.(check bool) "no multi-process executor" false
    (ok { golden_request with Service.executor = "distributed:2" });
  Alcotest.(check bool) "parallel:64 accepted" true
    (ok { golden_request with Service.executor = "parallel:64" });
  (match Service.validate_request { golden_request with Service.executor = "parallel:65" } with
  | Ok () -> Alcotest.fail "parallel:65 must be rejected"
  | Error m ->
      Alcotest.(check bool) ("names the bound: " ^ m) true
        (contains_substring ~sub:"bound of 64" m));
  Alcotest.(check bool) "empty executor means sequential" true
    (ok { golden_request with Service.executor = "" })

(* ------------------------------------------------------------------ *)
(* DSTRESS-REQ/1: qcheck round trips                                   *)
(* ------------------------------------------------------------------ *)

let gen_request =
  QCheck2.Gen.(
    let* workload = oneofl [ Service.En; Service.Egj ] in
    let* ot_mode = oneofl [ Ot_ext.Simulation; Ot_ext.Crypto ] in
    let* preprocess = bool in
    let* seed = int_range (-1000000) 1000000 in
    let* core = int_range 1 64 in
    let* periphery = int_range 1 64 in
    let* iterations = int_range 1 32 in
    let* k = int_range 1 8 in
    let* slice_width = int_range 1 64 in
    let* executor = oneofl [ ""; "sequential"; "parallel:3" ] in
    return
      {
        Service.workload;
        core;
        periphery;
        iterations;
        k;
        seed;
        slice_width;
        ot_mode;
        preprocess;
        executor;
      })

let prop_request_roundtrip =
  QCheck2.Test.make ~name:"DSTRESS-REQ/1 request roundtrip" ~count:300 gen_request
    (fun r -> Service.decode_request (Service.encode_request r) = Ok r)

let gen_response =
  QCheck2.Gen.(
    let* tag = int_bound 2 in
    match tag with
    | 0 ->
        let* output = int_range (-1000000) 1000000 in
        let* mpc_rounds = int_bound 100000 in
        let* mpc_and_gates = int_bound 100000 in
        let* mpc_ots = int_bound 100000 in
        let* trace = string_size (int_bound 200) in
        let* metrics = string_size (int_bound 200) in
        return
          (Service.Completed
             { Service.output; mpc_rounds; mpc_and_gates; mpc_ots; trace; metrics })
    | 1 ->
        let* m = string_size (int_bound 100) in
        return (Service.Rejected m)
    | _ ->
        let* m = string_size (int_bound 100) in
        return (Service.Degraded m))

let prop_response_roundtrip =
  QCheck2.Test.make ~name:"DSTRESS-REQ/1 response roundtrip" ~count:300 gen_response
    (fun r -> Service.decode_response (Service.encode_response r) = Ok r)

(* ------------------------------------------------------------------ *)
(* The handler `dstress serve` runs                                    *)
(* ------------------------------------------------------------------ *)

(* What the persistent workers inherit: the daemon's own handler at
   `serve`'s defaults (epsilon 1, cascade shock), so every request-visible
   knob (seed, sizes, iterations, k, OT mode, preprocess, executor) is
   honored and the reserved slice width ignored. *)
let handler = Query.handler ~grp ~epsilon:1.0 ~shock:Dstress_graphgen.Banking.Cascade

let base_request =
  {
    Service.workload = Service.En;
    core = 2;
    periphery = 2;
    iterations = 2;
    k = 2;
    seed = 1;
    slice_width = 64;
    ot_mode = Ot_ext.Simulation;
    preprocess = false;
    executor = "";
  }

(* The solo oracle: the same request run sequentially in this process.
   Tick-domain exports are executor-invariant, so this is the expected
   answer for every in-worker executor spec. *)
let oracle req = handler { req with Service.executor = "" }

let check_summary_equal label (want : Service.summary) (got : Service.summary) =
  Alcotest.(check int) (label ^ ": output") want.Service.output got.Service.output;
  Alcotest.(check int) (label ^ ": rounds") want.Service.mpc_rounds got.Service.mpc_rounds;
  Alcotest.(check int)
    (label ^ ": AND gates")
    want.Service.mpc_and_gates got.Service.mpc_and_gates;
  Alcotest.(check int) (label ^ ": OTs") want.Service.mpc_ots got.Service.mpc_ots;
  Alcotest.(check string) (label ^ ": trace bytes") want.Service.trace got.Service.trace;
  Alcotest.(check string)
    (label ^ ": metrics bytes")
    want.Service.metrics got.Service.metrics

let quick_opts =
  { Service.default_pool_opts with Service.workers = 2; request_deadline = 60.0 }

let run_pool_until pool ~pending ~deadline =
  let until = Unix.gettimeofday () +. deadline in
  while !pending > 0 && Unix.gettimeofday () < until do
    Service.pool_step pool ~timeout:0.05
  done;
  Alcotest.(check int) "every request terminated with a typed outcome" 0 !pending

(* ------------------------------------------------------------------ *)
(* Pool differential: persistent workers == solo sequential            *)
(* ------------------------------------------------------------------ *)

let test_pool_differential () =
  let pool = Service.create_pool ~opts:quick_opts ~handler () in
  (* Mixed workloads, seeds and in-worker executors, all in flight at
     once over 2 persistent workers — plus a duplicated config (seeds 21
     and 21) that must produce identical bytes. *)
  let reqs =
    [
      { base_request with Service.seed = 21 };
      { base_request with Service.seed = 21; executor = "parallel:2" };
      { base_request with Service.seed = 22; executor = "sequential" };
      { base_request with Service.seed = 23; slice_width = 1 };
      { base_request with Service.workload = Service.Egj; seed = 24 };
      { base_request with Service.seed = 25; preprocess = true };
    ]
  in
  let n = List.length reqs in
  let results = Array.make n None in
  let pending = ref n in
  List.iteri
    (fun i r ->
      match
        Service.submit pool r (fun resp ->
            results.(i) <- Some resp;
            decr pending)
      with
      | `Queued -> ()
      | `Queue_full | `No_workers -> Alcotest.failf "submit %d rejected" i)
    reqs;
  run_pool_until pool ~pending ~deadline:120.0;
  List.iteri
    (fun i r ->
      match results.(i) with
      | Some (Service.Completed s) ->
          check_summary_equal (Printf.sprintf "request %d" i) (oracle r) s
      | Some (Service.Rejected m) -> Alcotest.failf "request %d rejected: %s" i m
      | Some (Service.Degraded m) -> Alcotest.failf "request %d degraded: %s" i m
      | None -> Alcotest.failf "request %d never resolved" i)
    reqs;
  let m = Service.pool_metrics pool in
  Alcotest.(check int) "all completed" n (Metrics.counter m "service.requests_completed");
  Alcotest.(check bool) "dispatches counted" true
    (Metrics.counter m "service.requests_dispatched" >= n);
  Service.shutdown_pool pool

let test_pool_queue_backpressure () =
  let opts = { quick_opts with Service.workers = 1; queue_depth = 2 } in
  let pool = Service.create_pool ~opts ~handler () in
  let pending = ref 0 in
  let submit r =
    Service.submit pool r (fun _ -> decr pending)
  in
  (* Nothing is stepped yet, so the queue fills: depth 2, then typed
     backpressure without invoking the callback. *)
  Alcotest.(check bool) "first queued" true (submit base_request = `Queued);
  incr pending;
  Alcotest.(check bool) "second queued" true
    (submit { base_request with Service.seed = 2 } = `Queued);
  incr pending;
  Alcotest.(check bool) "third rejected" true
    (submit { base_request with Service.seed = 3 } = `Queue_full);
  let m = Service.pool_metrics pool in
  Alcotest.(check int) "rejection counted" 1 (Metrics.counter m "service.requests_rejected");
  run_pool_until pool ~pending ~deadline:120.0;
  Service.shutdown_pool pool

let test_pool_handler_failure_is_typed () =
  let pool =
    Service.create_pool ~opts:quick_opts
      ~handler:(fun req ->
        if req.Service.seed = 13 then failwith "unlucky" else handler req)
      ()
  in
  let outcome = ref None and pending = ref 2 in
  let ok = ref None in
  ignore
    (Service.submit pool { base_request with Service.seed = 13 } (fun r ->
         outcome := Some r;
         decr pending));
  ignore
    (Service.submit pool { base_request with Service.seed = 14 } (fun r ->
         ok := Some r;
         decr pending));
  run_pool_until pool ~pending ~deadline:120.0;
  (match !outcome with
  | Some (Service.Degraded m) ->
      Alcotest.(check bool) "message surfaced" true (contains_substring ~sub:"unlucky" m)
  | _ -> Alcotest.fail "handler exception must degrade that request");
  (match !ok with
  | Some (Service.Completed s) ->
      (* The worker survives its handler's exception: the next request on
         the same pool still completes and still matches the oracle. *)
      check_summary_equal "after failure" (oracle { base_request with Service.seed = 14 }) s
  | _ -> Alcotest.fail "pool must keep serving after a handler failure");
  Service.shutdown_pool pool

(* True once [pid] is gone and reaped. Pool workers are this process's
   children: a killed one lingers as a zombie, still found by signal 0,
   until the pool's own waitpid reaps it. *)
let reaped pid =
  match Unix.kill pid 0 with
  | () -> false
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true

(* Plant [fault] on the pool's first dispatch; the returned cell gets the
   pid of the worker that dispatch went to. *)
let watch_first_dispatch pool fault =
  let pids = List.map (fun w -> w.Service.w_pid) (Service.pool_stats pool).Service.workers in
  let victim = ref None in
  Service.set_pool_fault_source pool (fun ~request_index ~worker ->
      if request_index = 0 then begin
        victim := Some (List.nth pids worker);
        fault
      end
      else None);
  victim

(* Step the pool until the lost worker [victim] is reaped: the loss
   killed it, so a few turns suffice. *)
let check_reaped pool what victim =
  match !victim with
  | None -> Alcotest.failf "%s: nothing was dispatched" what
  | Some pid ->
      let until = Unix.gettimeofday () +. 2.0 in
      while (not (reaped pid)) && Unix.gettimeofday () < until do
        Service.pool_step pool ~timeout:0.05
      done;
      Alcotest.(check bool) (Printf.sprintf "%s: worker %d reaped" what pid) true (reaped pid)

let test_pool_lost_worker_killed () =
  (* A stall far past suspicion (phi 8 x 50 ms = 0.4 s): the slot is
     lost, its worker killed mid-stall, and the request re-dispatched.
     The pool keeps stepping past the end of the stall, when a surviving
     worker would have replied: the callback must fire exactly once. *)
  let pool = Service.create_pool ~opts:quick_opts ~handler () in
  let victim = watch_first_dispatch pool (Some (Supervisor.Stall 2.0)) in
  let req = { base_request with Service.seed = 41 } in
  let replies = ref [] and pending = ref 1 in
  (match
     Service.submit pool req (fun r ->
         replies := r :: !replies;
         decr pending)
   with
  | `Queued -> ()
  | `Queue_full | `No_workers -> Alcotest.fail "submit rejected");
  let stall_ends = Unix.gettimeofday () +. 2.5 in
  let m = Service.pool_metrics pool in
  let until = Unix.gettimeofday () +. 30.0 in
  while Metrics.counter m "pool.suspicions" = 0 && Unix.gettimeofday () < until do
    Service.pool_step pool ~timeout:0.05
  done;
  Alcotest.(check bool) "stall tripped suspicion" true (Metrics.counter m "pool.suspicions" > 0);
  check_reaped pool "stalled" victim;
  run_pool_until pool ~pending ~deadline:60.0;
  while Unix.gettimeofday () < stall_ends do
    Service.pool_step pool ~timeout:0.05
  done;
  (match !replies with
  | [ Service.Completed s ] -> check_summary_equal "stalled request" (oracle req) s
  | [ _ ] -> Alcotest.fail "stalled request did not complete"
  | rs -> Alcotest.failf "callback fired %d times" (List.length rs));
  Service.shutdown_pool pool;
  (* A handler that outlives the request deadline while still
     heartbeating: the deadline loses the slot the way suspicion does,
     and kills the wedged worker. *)
  let opts = { quick_opts with Service.request_deadline = 1.0; max_attempts_per_request = 1 } in
  let pool =
    Service.create_pool ~opts
      ~handler:(fun req ->
        Unix.sleepf 30.0;
        handler req)
      ()
  in
  let victim = watch_first_dispatch pool None in
  let reply = ref None and pending = ref 1 in
  (match
     Service.submit pool base_request (fun r ->
         reply := Some r;
         decr pending)
   with
  | `Queued -> ()
  | `Queue_full | `No_workers -> Alcotest.fail "submit rejected");
  run_pool_until pool ~pending ~deadline:30.0;
  (match !reply with
  | Some (Service.Degraded msg) ->
      Alcotest.(check bool) "names the deadline" true
        (contains_substring ~sub:"request deadline expired" msg)
  | _ -> Alcotest.fail "the wedged request must degrade");
  Alcotest.(check bool) "deadline counted" true
    (Metrics.counter (Service.pool_metrics pool) "pool.request_timeouts" >= 1);
  check_reaped pool "wedged" victim;
  Service.shutdown_pool pool

let test_pool_disconnect_recovered () =
  let pool = Service.create_pool ~opts:quick_opts ~handler () in
  (* The first dispatch makes its worker sever its socket before serving:
     the pool must see the disconnect, respawn the slot and complete the
     request on a later attempt. *)
  Service.set_pool_fault_source pool (fun ~request_index ~worker:_ ->
      if request_index = 0 then Some Supervisor.Disconnect else None);
  let req = { base_request with Service.seed = 61 } in
  let reply = ref None and pending = ref 1 in
  (match
     Service.submit pool req (fun r ->
         reply := Some r;
         decr pending)
   with
  | `Queued -> ()
  | `Queue_full | `No_workers -> Alcotest.fail "submit rejected");
  run_pool_until pool ~pending ~deadline:120.0;
  (match !reply with
  | Some (Service.Completed s) -> check_summary_equal "disconnected request" (oracle req) s
  | _ -> Alcotest.fail "the disconnected request must complete");
  let m = Service.pool_metrics pool in
  Alcotest.(check bool) "disconnect seen" true
    (Metrics.counter m "pool.worker_disconnects" >= 1);
  Alcotest.(check bool) "slot respawned" true (Metrics.counter m "pool.respawns" >= 1);
  Service.shutdown_pool pool

let test_pool_every_slot_partitioned () =
  let pool =
    Service.create_pool ~opts:{ quick_opts with Service.max_respawns_per_slot = 1 } ~handler ()
  in
  (* Every dispatch to every slot, respawns included, is muted: the
     detector fences each one until every slot is abandoned, and then the
     pool must fail what is left fast, with typed outcomes. *)
  Service.set_pool_fault_source pool (fun ~request_index:_ ~worker:_ ->
      Some Supervisor.Partition);
  let n = 3 in
  let results = Array.make n None and pending = ref n in
  for i = 0 to n - 1 do
    match
      Service.submit pool { base_request with Service.seed = 70 + i } (fun r ->
          results.(i) <- Some r;
          decr pending)
    with
    | `Queued -> ()
    | `Queue_full | `No_workers -> Alcotest.failf "submit %d rejected" i
  done;
  let t0 = Unix.gettimeofday () in
  run_pool_until pool ~pending ~deadline:60.0;
  Alcotest.(check bool) "resolved well inside the deadline" true
    (Unix.gettimeofday () -. t0 < 30.0);
  Array.iteri
    (fun i r ->
      match r with
      | Some (Service.Degraded _) -> ()
      | _ -> Alcotest.failf "request %d must end Degraded" i)
    results;
  let m = Service.pool_metrics pool in
  Alcotest.(check bool) "suspicions recorded" true (Metrics.counter m "pool.suspicions" >= 1);
  List.iter
    (fun w ->
      Alcotest.(check string)
        (Printf.sprintf "slot %d" w.Service.w_slot)
        "abandoned" w.Service.w_state)
    (Service.pool_stats pool).Service.workers;
  Alcotest.(check bool) "a later submit has no workers" true
    (Service.submit pool base_request (fun _ -> Alcotest.fail "callback must not fire")
    = `No_workers);
  Service.shutdown_pool pool

(* ------------------------------------------------------------------ *)
(* Lifecycle chaos: wire faults against persistent workers             *)
(* ------------------------------------------------------------------ *)

let test_pool_chaos_soak () =
  let opts =
    {
      quick_opts with
      Service.request_deadline = 20.0;
      max_respawns_per_slot = 8;
      max_attempts_per_request = 4;
    }
  in
  let pool = Service.create_pool ~opts ~handler () in
  (* A seeded schedule over the first 10 dispatches of every slot: per
     cell, disconnect 12%, stall 10% (0.05-0.25 s), partition 8%. *)
  let prng = Prng.of_int 0xD5 in
  let schedule =
    Array.init opts.Service.workers (fun _ ->
        Array.init 10 (fun _ ->
            let u = Prng.float prng in
            if u < 0.12 then Some Supervisor.Disconnect
            else if u < 0.22 then Some (Supervisor.Stall (0.05 +. (Prng.float prng *. 0.2)))
            else if u < 0.30 then Some Supervisor.Partition
            else None))
  in
  (* On top of the schedule, one of each kind always fires, so the soak
     always exercises disconnect, stall and fence. *)
  Service.set_pool_fault_source pool (fun ~request_index ~worker ->
      match (request_index, worker) with
      | 0, 0 -> Some Supervisor.Disconnect
      | 1, 1 -> Some (Supervisor.Stall 0.15)
      | 2, _ -> Some Supervisor.Partition
      | i, w when i < 10 -> schedule.(w).(i)
      | _ -> None);
  let n = 8 in
  let results = Array.make n None in
  let pending = ref n in
  for i = 0 to n - 1 do
    let r = { base_request with Service.seed = 100 + i } in
    match
      Service.submit pool r (fun resp ->
          results.(i) <- Some resp;
          decr pending)
    with
    | `Queued -> ()
    | `Queue_full | `No_workers -> Alcotest.failf "submit %d rejected" i
  done;
  let t0 = Unix.gettimeofday () in
  run_pool_until pool ~pending ~deadline:180.0;
  Alcotest.(check bool) "terminated well before the test deadline" true
    (Unix.gettimeofday () -. t0 < 170.0);
  let completed = ref 0 and degraded = ref [] in
  for i = 0 to n - 1 do
    match results.(i) with
    | Some (Service.Completed s) ->
        incr completed;
        check_summary_equal
          (Printf.sprintf "chaos request %d" i)
          (oracle { base_request with Service.seed = 100 + i })
          s
    | Some (Service.Degraded m) -> degraded := Printf.sprintf "%d: %s" i m :: !degraded
    | Some (Service.Rejected m) -> Alcotest.failf "chaos request %d rejected: %s" i m
    | None -> Alcotest.failf "chaos request %d hung" i
  done;
  (* The redispatch machinery must pull most requests through. *)
  if !completed * 2 < n then
    Alcotest.failf "too few completed (%d/%d); degrades: %s" !completed n
      (String.concat " | " (List.rev !degraded));
  let m = Service.pool_metrics pool in
  Alcotest.(check bool) "faults actually fired" true
    (Metrics.counter m "pool.worker_disconnects"
     + Metrics.counter m "pool.suspicions"
     + Metrics.counter m "pool.request_timeouts"
    > 0);
  Service.shutdown_pool pool

(* ------------------------------------------------------------------ *)
(* Daemon end-to-end: forked server, concurrent clients, drain         *)
(* ------------------------------------------------------------------ *)

let fork_daemon ?(opts = quick_opts) addr_spec =
  let listener, addr = Service.bind_listener addr_spec in
  flush stdout;
  flush stderr;
  let pid = Unix.fork () in
  if pid = 0 then begin
    (try Service.serve ~pool_opts:opts ~handler ~listener ~addr () with
    | _ -> Unix._exit 1);
    Unix._exit 0
  end;
  Unix.close listener;
  (pid, addr)

let svc_socket_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "dstress-svc-%s-%d.sock" tag (Unix.getpid ()))

let wait_child pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1

(* A failed assertion mid-test must not leak a daemon (and its worker
   pool) into the rest of the suite — stray busy processes skew the
   heartbeat timing of every later test. *)
let with_daemon ?opts addr_spec f =
  let pid, addr = fork_daemon ?opts addr_spec in
  Fun.protect
    ~finally:(fun () ->
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (wait_child pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ())
    (fun () -> f pid addr)

let connect_unix path = Transport.connect ~attempts:50 ~backoff:0.02 ~path ()

let test_daemon_concurrent_unix () =
  let path = svc_socket_path "conc" in
  with_daemon (Service.Unix_socket path) @@ fun pid _addr ->
  let reqs =
    [|
      { base_request with Service.seed = 31 };
      { base_request with Service.seed = 31 };
      { base_request with Service.seed = 32; executor = "parallel:2" };
      { base_request with Service.workload = Service.Egj; seed = 33 };
    |]
  in
  (* One connection per client, every request frame sent before any
     response is read: all four are in flight at the daemon at once.
     (No client threads — this process forks more daemons later, and a
     fork after Thread.create would leave the children's thread runtime
     broken, the same hazard as fork-after-Domain.spawn.) *)
  let conns = Array.map (fun _ -> connect_unix path) reqs in
  Array.iteri
    (fun i r ->
      Transport.send conns.(i) ~kind:Transport.Kind.request (Service.encode_request r))
    reqs;
  let results = Array.make (Array.length reqs) None in
  let deadline = Unix.gettimeofday () +. 120.0 in
  let remaining () = Array.exists (fun r -> r = None) results in
  while remaining () && Unix.gettimeofday () < deadline do
    Array.iteri
      (fun i conn ->
        if results.(i) = None then
          match Transport.recv conn ~timeout:0.05 with
          | Some fr when fr.Transport.kind = Transport.Kind.response -> (
              match Service.decode_response fr.Transport.payload with
              | Ok resp -> results.(i) <- Some resp
              | Error e -> Alcotest.failf "client %d: bad response: %s" i e)
          | Some _ | None -> ())
      conns
  done;
  Array.iter Transport.close conns;
  Array.iteri
    (fun i r ->
      match results.(i) with
      | Some (Service.Completed s) ->
          check_summary_equal (Printf.sprintf "client %d" i) (oracle r) s
      | Some (Service.Rejected m) -> Alcotest.failf "client %d rejected: %s" i m
      | Some (Service.Degraded m) -> Alcotest.failf "client %d degraded: %s" i m
      | None -> Alcotest.failf "client %d got no response" i)
    reqs;
  (* Identical seeded requests answered concurrently are byte-identical. *)
  (match (results.(0), results.(1)) with
  | Some (Service.Completed a), Some (Service.Completed b) ->
      check_summary_equal "same seed, same bytes" a b
  | _ -> Alcotest.fail "expected both same-seed requests to complete");
  Unix.kill pid Sys.sigterm;
  Alcotest.(check int) "daemon drains to exit 0" 0 (wait_child pid)

let test_daemon_malformed_and_garbage () =
  let path = svc_socket_path "mal" in
  with_daemon (Service.Unix_socket path) @@ fun pid _addr ->
  (* A well-framed request whose payload is not DSTRESS-REQ/1 gets a
     typed reject and the connection stays usable. *)
  let conn = connect_unix path in
  Transport.send conn ~kind:Transport.Kind.request (Bytes.of_string "not a request");
  (match Service.call ~timeout:30.0 conn base_request with
  | exception Transport.Error _ -> Alcotest.fail "connection must survive a bad payload"
  | _ -> ());
  Transport.close conn;
  (* An invalid request (validated, not just parsed) is rejected. *)
  let conn = connect_unix path in
  (match Service.call ~timeout:30.0 conn { base_request with Service.slice_width = 99 } with
  | Service.Rejected m ->
      Alcotest.(check bool) "names the field" true
        (contains_substring ~sub:"slice_width" m)
  | _ -> Alcotest.fail "invalid request must be rejected");
  Transport.close conn;
  (* Raw garbage (bad frame magic) breaks framing: the daemon drops the
     connection rather than guess at the byte stream. *)
  let conn = connect_unix path in
  let junk = Bytes.of_string "XXXXGARBAGEGARBAGEGARBAGEGARBAGEGARBAGE" in
  ignore (Unix.write (Transport.fd conn) junk 0 (Bytes.length junk));
  (match Transport.recv conn ~timeout:10.0 with
  | exception Transport.Error (Transport.Closed _) -> ()
  | None -> Alcotest.fail "daemon must close a corrupted connection"
  | Some _ -> Alcotest.fail "daemon must not answer garbage");
  Transport.close conn;
  (* A corrupted CRC is an integrity violation: same drop. *)
  let conn = connect_unix path in
  let payload = Service.encode_request base_request in
  let frame = Bytes.create (24 + Bytes.length payload) in
  Bytes.blit_string "DSTR" 0 frame 0 4;
  Bytes.set frame 4 '\003';
  Bytes.set frame 5 (Char.chr Transport.Kind.request);
  Bytes.set_uint16_le frame 6 0 (* pad *);
  Bytes.set_int64_le frame 8 0L (* trace *);
  Bytes.set_int32_le frame 16 (Int32.of_int (Bytes.length payload));
  Bytes.set_int32_le frame 20 0xDEADl (* wrong CRC *);
  Bytes.blit payload 0 frame 24 (Bytes.length payload);
  ignore (Unix.write (Transport.fd conn) frame 0 (Bytes.length frame));
  (match Transport.recv conn ~timeout:10.0 with
  | exception Transport.Error (Transport.Closed _) -> ()
  | None -> Alcotest.fail "daemon must close on CRC mismatch"
  | Some _ -> Alcotest.fail "daemon must not answer a corrupt frame");
  Transport.close conn;
  (* After all that abuse, the daemon still serves and still drains. *)
  let conn = connect_unix path in
  (match Service.call ~timeout:120.0 conn base_request with
  | Service.Completed s -> check_summary_equal "still serving" (oracle base_request) s
  | Service.Rejected m -> Alcotest.failf "still-serving request rejected: %s" m
  | Service.Degraded m -> Alcotest.failf "still-serving request degraded: %s" m);
  Transport.close conn;
  Unix.kill pid Sys.sigterm;
  Alcotest.(check int) "clean drain" 0 (wait_child pid)

let test_daemon_tcp () =
  with_daemon (Service.Tcp ("127.0.0.1", 0)) @@ fun pid addr ->
  let port =
    match String.rindex_opt addr ':' with
    | Some i -> int_of_string (String.sub addr (i + 1) (String.length addr - i - 1))
    | None -> Alcotest.failf "unexpected bound address %S" addr
  in
  Alcotest.(check bool) "ephemeral port bound" true (port > 0);
  let conn = Transport.connect_tcp ~attempts:50 ~backoff:0.02 ~host:"127.0.0.1" ~port () in
  (match Service.call ~timeout:120.0 conn { base_request with Service.seed = 41 } with
  | Service.Completed s ->
      check_summary_equal "tcp == solo" (oracle { base_request with Service.seed = 41 }) s
  | Service.Rejected m -> Alcotest.failf "tcp request rejected: %s" m
  | Service.Degraded m -> Alcotest.failf "tcp request degraded: %s" m);
  Transport.close conn;
  Unix.kill pid Sys.sigterm;
  Alcotest.(check int) "tcp daemon drains to exit 0" 0 (wait_child pid)

let test_daemon_sigterm_drains_inflight () =
  let path = svc_socket_path "drain" in
  with_daemon (Service.Unix_socket path) @@ fun pid _addr ->
  let conn = connect_unix path in
  let req = { base_request with Service.seed = 51; iterations = 3 } in
  Transport.send conn ~kind:Transport.Kind.request (Service.encode_request req);
  (* Let the daemon dispatch it, then ask for shutdown mid-request. *)
  Unix.sleepf 0.15;
  Unix.kill pid Sys.sigterm;
  let deadline = Unix.gettimeofday () +. 120.0 in
  let rec await () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "no response before the drain deadline"
    else
      match Transport.recv conn ~timeout:1.0 with
      | Some fr when fr.Transport.kind = Transport.Kind.response -> fr
      | Some _ -> await ()
      | None -> await ()
  in
  let fr = await () in
  (match Service.decode_response fr.Transport.payload with
  | Ok (Service.Completed s) ->
      (* The in-flight request finished during the drain, correctly. *)
      check_summary_equal "drained request" (oracle req) s
  | Ok (Service.Degraded m) ->
      (* Acceptable only as the typed shutdown outcome, never a hang. *)
      if not (contains_substring ~sub:"shutting down" m) then
        Alcotest.failf "unexpected degrade during drain: %s" m
  | Ok (Service.Rejected m) -> Alcotest.failf "in-flight request rejected: %s" m
  | Error e -> Alcotest.failf "bad response: %s" e);
  Transport.close conn;
  Alcotest.(check int) "drain exits 0" 0 (wait_child pid)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest [ prop_request_roundtrip; prop_response_roundtrip ]
  in
  Alcotest.run "service"
    [
      ( "wire format",
        [
          Alcotest.test_case "golden request" `Quick test_golden_request;
          Alcotest.test_case "golden response" `Quick test_golden_response;
          Alcotest.test_case "malformed request" `Quick test_malformed_request;
          Alcotest.test_case "malformed response" `Quick test_malformed_response;
          Alcotest.test_case "validate request" `Quick test_validate_request;
        ]
        @ qsuite );
      ( "pool",
        [
          Alcotest.test_case "differential vs solo" `Slow test_pool_differential;
          Alcotest.test_case "queue backpressure" `Quick test_pool_queue_backpressure;
          Alcotest.test_case "handler failure typed" `Slow test_pool_handler_failure_is_typed;
          Alcotest.test_case "lost worker is killed" `Slow test_pool_lost_worker_killed;
          Alcotest.test_case "disconnect recovered" `Slow test_pool_disconnect_recovered;
          Alcotest.test_case "every slot partitioned" `Slow test_pool_every_slot_partitioned;
        ] );
      ( "chaos",
        [ Alcotest.test_case "wire-fault soak" `Slow test_pool_chaos_soak ] );
      ( "daemon",
        [
          Alcotest.test_case "concurrent clients" `Slow test_daemon_concurrent_unix;
          Alcotest.test_case "malformed traffic" `Slow test_daemon_malformed_and_garbage;
          Alcotest.test_case "tcp listener" `Slow test_daemon_tcp;
          Alcotest.test_case "sigterm drains in-flight" `Slow
            test_daemon_sigterm_drains_inflight;
        ] );
    ]
