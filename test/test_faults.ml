(* Fault injection and recovery: plan determinism, the injector's
   book-keeping, the transfer protocol's retry machinery, and whole-engine
   degradation under crashes and lossy edges. The engine tests run with a
   huge epsilon so the release noise is zero and full recovery is
   observable as exact agreement with the plaintext reference. *)

module Bitvec = Dstress_util.Bitvec
module Prng = Dstress_util.Prng
module Group = Dstress_crypto.Group
module Prg = Dstress_crypto.Prg
module Exp_elgamal = Dstress_crypto.Exp_elgamal
module Traffic = Dstress_mpc.Traffic
module Sharing = Dstress_mpc.Sharing
module Setup = Dstress_transfer.Setup
module Protocol = Dstress_transfer.Protocol
module Edge_privacy = Dstress_transfer.Edge_privacy
module Fault = Dstress_faults.Fault
module Graph = Dstress_runtime.Graph
module Engine = Dstress_runtime.Engine
module Reference = Dstress_risk.Reference
module En_program = Dstress_risk.En_program
module Egj_program = Dstress_risk.Egj_program

let grp = Group.by_name "toy"

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)
(* ------------------------------------------------------------------ *)

let some_edges = [ (0, 1); (1, 2); (2, 3); (3, 0); (1, 3) ]

let test_random_plan_deterministic () =
  let rates = { Fault.crash = 0.2; drop = 0.1; delay = 0.1; corrupt = 0.1; miss = 0.1 } in
  let draw () = Fault.random_plan ~seed:7 ~rounds:4 ~nodes:6 ~edges:some_edges rates in
  Alcotest.(check bool) "same seed, same plan" true (draw () = draw ());
  let other = Fault.random_plan ~seed:8 ~rounds:4 ~nodes:6 ~edges:some_edges rates in
  Alcotest.(check bool) "different seed, different plan" true (draw () <> other)

let test_random_plan_rejects_bad_rates () =
  let check_bad rates =
    Alcotest.(check bool) "rejected" true
      (try
         ignore (Fault.random_plan ~seed:1 ~rounds:2 ~nodes:3 ~edges:some_edges rates);
         false
       with Invalid_argument _ -> true)
  in
  check_bad { Fault.no_faults with drop = -0.1 };
  check_bad { Fault.no_faults with miss = 1.5 };
  Alcotest.(check bool) "rounds < 1 rejected" true
    (try
       ignore (Fault.random_plan ~seed:1 ~rounds:0 ~nodes:3 ~edges:[] Fault.no_faults);
       false
     with Invalid_argument _ -> true)

let test_random_crashes_distinct () =
  let plan = Fault.random_crashes ~seed:3 ~nodes:10 ~rounds:5 ~count:4 in
  Alcotest.(check int) "count" 4 (List.length plan);
  let victims =
    List.map (function Fault.Crash_node { node; _ } -> node | _ -> Alcotest.fail "not a crash") plan
  in
  Alcotest.(check int) "distinct victims" 4 (List.length (List.sort_uniq compare victims))

let test_injector_counts_only_fired () =
  let plan =
    [
      Fault.Drop_transfer { src = 0; dst = 1; round = 1 };
      Fault.Drop_transfer { src = 4; dst = 5; round = 9 }; (* never queried: dormant *)
      Fault.Crash_node { node = 2; from_round = 2; until_round = 4 };
    ]
  in
  let inj = Fault.Injector.create plan in
  let fired () = List.fold_left (fun acc (_, c) -> acc + c) 0 (Fault.Injector.injected inj) in
  Alcotest.(check int) "nothing fired yet" 0 (fired ());
  Alcotest.(check int) "drop on queried edge" 1
    (List.length (Fault.Injector.edge_faults inj ~round:1 ~src:0 ~dst:1));
  Alcotest.(check bool) "other edge clean" true
    (Fault.Injector.edge_faults inj ~round:1 ~src:1 ~dst:0 = []);
  Alcotest.(check bool) "no crash starts at round 1" false
    (Fault.Injector.crash_starting inj ~round:1 ~node:2);
  Alcotest.(check bool) "crash starts at round 2" true
    (Fault.Injector.crash_starting inj ~round:2 ~node:2);
  Alcotest.(check bool) "not starting at round 3" false
    (Fault.Injector.crash_starting inj ~round:3 ~node:2);
  Alcotest.(check int) "dormant fault not counted" 2 (fired ());
  Alcotest.(check int) "drop count" 1 (List.assoc Fault.Drop (Fault.Injector.injected inj));
  Alcotest.(check int) "crash count" 1 (List.assoc Fault.Crash (Fault.Injector.injected inj));
  (* Every kind is one the engine fires: the five protocol kinds. *)
  Alcotest.(check (list string)) "kinds"
    [ "crash"; "drop"; "delay"; "corrupt"; "decrypt-miss" ]
    (List.map (fun (k, _) -> Fault.kind_name k) (Fault.Injector.injected inj))

(* ------------------------------------------------------------------ *)
(* The simulated-time rounding contract                               *)
(* ------------------------------------------------------------------ *)

let test_delay_ticks_contract () =
  Alcotest.(check (float 0.0)) "one rule: 1e6 ticks per second" 1_000_000.0
    Fault.ticks_per_second;
  Alcotest.(check int) "50 ms" 50_000 (Fault.delay_ticks 0.05);
  Alcotest.(check int) "truncates toward zero" 1 (Fault.delay_ticks 1.9e-6);
  Alcotest.(check int) "sub-microsecond charges nothing" 0 (Fault.delay_ticks 4.0e-7);
  Alcotest.(check int) "negative never charges" 0 (Fault.delay_ticks (-0.5e-6))

(* ------------------------------------------------------------------ *)
(* Protocol recovery                                                   *)
(* ------------------------------------------------------------------ *)

let prg tag = Prg.of_string ("test-faults:" ^ tag)
let small_setup = lazy (Setup.run (prg "setup") grp ~n:8 ~k:2 ~degree_bound:3 ~bits:8)
let wide_table = lazy (Exp_elgamal.Table.make grp ~lo:(-300) ~hi:320)

let run_transfer ?recovery ?inject ?(alpha = 0.5) ?(table = Lazy.force wide_table)
    ?(tag = "run") () =
  let s = Lazy.force small_setup in
  let m = Bitvec.of_int ~bits:8 0xA7 in
  let shares = Sharing.share (prg ("msg:" ^ tag)) ~parties:3 m in
  let traffic = Traffic.create 8 in
  let outcome =
    Protocol.transfer ?recovery ?inject { Protocol.alpha; table } ~prg:(prg tag)
      ~noise:(Prng.of_int (Hashtbl.hash tag)) ~traffic ~variant:Protocol.Final ~setup:s
      ~sender:1 ~receiver:5 ~neighbor_slot:1 ~shares
  in
  (m, outcome)

let recovery ?escalation ~max_retries () =
  { Protocol.max_retries;
    escalation_table = Option.map (fun t -> lazy t) escalation }

let test_forced_miss_recovered_by_retry () =
  let m, o =
    run_transfer ~inject:(Protocol.Force_miss { member = 1; bit = 3 })
      ~recovery:(recovery ~max_retries:2 ()) ~tag:"force-miss" ()
  in
  Alcotest.(check bool) "message survives" true
    (Bitvec.equal m (Sharing.reconstruct o.Protocol.shares));
  Alcotest.(check int) "one failure" 1 o.Protocol.failures;
  Alcotest.(check int) "one retry" 1 o.Protocol.retries;
  Alcotest.(check int) "recovered" 1 o.Protocol.recovered;
  Alcotest.(check int) "nothing unrecovered" 0 o.Protocol.unrecovered;
  (* Both attempts decrypted, so the retry re-released one transfer's
     worth of noised sums: k * L sums at -ln(alpha) each. *)
  Alcotest.(check (float 1e-9)) "retry charged to edge budget"
    (Edge_privacy.retry_epsilon ~alpha:0.5 ~k:2 ~bits:8 ~retries:1)
    o.Protocol.extra_epsilon;
  Alcotest.(check bool) "charge is positive" true (o.Protocol.extra_epsilon > 0.0)

let test_forced_miss_without_recovery_is_flagged () =
  let m, o =
    run_transfer ~inject:(Protocol.Force_miss { member = 0; bit = 0 }) ~tag:"no-recovery" ()
  in
  Alcotest.(check int) "failure surfaced" 1 o.Protocol.failures;
  Alcotest.(check int) "no retries without a policy" 0 o.Protocol.retries;
  Alcotest.(check int) "unrecovered" 1 o.Protocol.unrecovered;
  (match o.Protocol.misses with
  | [ { Protocol.member; bit } ] ->
      Alcotest.(check (pair int int)) "miss position" (0, 0) (member, bit)
  | ms -> Alcotest.fail (Printf.sprintf "expected 1 miss, got %d" (List.length ms)));
  (* The substituted 0 makes exactly the missed share bit untrusted; the
     message as reconstructed generally differs from the original. *)
  Alcotest.(check bool) "no epsilon charge without retries" true
    (o.Protocol.extra_epsilon = 0.0);
  ignore m

let test_dropped_transfer_without_recovery () =
  let _, o = run_transfer ~inject:Protocol.Drop_attempt ~tag:"drop-bare" () in
  Alcotest.(check bool) "all shares zero" true
    (Array.for_all (fun s -> not (Bitvec.to_bool_array s |> Array.exists Fun.id)) o.Protocol.shares);
  Alcotest.(check int) "every position untrusted" (3 * 8) o.Protocol.unrecovered;
  Alcotest.(check int) "misses listed" (3 * 8) (List.length o.Protocol.misses)

let test_dropped_transfer_recovered () =
  let m, o =
    run_transfer ~inject:Protocol.Drop_attempt ~recovery:(recovery ~max_retries:1 ())
      ~tag:"drop-retry" ()
  in
  Alcotest.(check bool) "message survives" true
    (Bitvec.equal m (Sharing.reconstruct o.Protocol.shares));
  Alcotest.(check int) "one retry" 1 o.Protocol.retries;
  Alcotest.(check int) "nothing unrecovered" 0 o.Protocol.unrecovered;
  (* The dropped attempt never reached the recipients, so only one release
     happened: no extra budget. *)
  Alcotest.(check (float 1e-9)) "dropped attempt costs no epsilon" 0.0 o.Protocol.extra_epsilon

let test_corrupt_transfer_recovered () =
  let m, o =
    run_transfer ~inject:Protocol.Corrupt_attempt ~recovery:(recovery ~max_retries:1 ())
      ~tag:"corrupt-retry" ()
  in
  Alcotest.(check bool) "message survives" true
    (Bitvec.equal m (Sharing.reconstruct o.Protocol.shares));
  Alcotest.(check int) "one retry" 1 o.Protocol.retries;
  Alcotest.(check (float 1e-9)) "discarded attempt costs no epsilon" 0.0
    o.Protocol.extra_epsilon

let test_escalation_table_rescues_tiny_table () =
  (* A hopeless primary table: alpha = 0.9 noise against [0, 3]. The
     escalation table covers the full noise range, so with zero ordinary
     retries the second (escalated) attempt must succeed. *)
  let tiny = Exp_elgamal.Table.make grp ~lo:0 ~hi:3 in
  let m, o =
    run_transfer ~alpha:0.9 ~table:tiny
      ~recovery:(recovery ~max_retries:0 ~escalation:(Lazy.force wide_table) ())
      ~tag:"escalate" ()
  in
  Alcotest.(check bool) "misses happened" true (o.Protocol.failures > 0);
  Alcotest.(check int) "escalation counted as a retry" 1 o.Protocol.retries;
  Alcotest.(check int) "all recovered" 0 o.Protocol.unrecovered;
  Alcotest.(check bool) "message survives" true
    (Bitvec.equal m (Sharing.reconstruct o.Protocol.shares))

let test_retry_exhaustion_reports_misses () =
  (* Same hopeless table with no escalation: after all attempts some
     positions stay untrusted and are reported, not papered over. *)
  let tiny = Exp_elgamal.Table.make grp ~lo:0 ~hi:3 in
  let _, o =
    run_transfer ~alpha:0.9 ~table:tiny ~recovery:(recovery ~max_retries:1 ())
      ~tag:"exhaust" ()
  in
  Alcotest.(check int) "both retries used" 1 o.Protocol.retries;
  Alcotest.(check bool) "unrecovered misses remain" true (o.Protocol.unrecovered > 0);
  Alcotest.(check int) "misses = unrecovered" o.Protocol.unrecovered
    (List.length o.Protocol.misses);
  Alcotest.(check bool) "recovered + unrecovered <= failures" true
    (o.Protocol.recovered + o.Protocol.unrecovered <= o.Protocol.failures)

let test_negative_retries_rejected () =
  Alcotest.(check bool) "max_retries < 0 rejected" true
    (try
       ignore (run_transfer ~recovery:(recovery ~max_retries:(-1) ()) ~tag:"neg" ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Engine config validation                                            *)
(* ------------------------------------------------------------------ *)

let test_config_validation () =
  let base = Engine.default_config grp ~k:2 ~degree_bound:3 in
  let rejects label cfg =
    Alcotest.(check bool) label true
      (try
         Engine.validate_config cfg;
         false
       with Invalid_argument msg -> String.length msg > String.length "Engine.run: ")
  in
  Engine.validate_config base;
  rejects "k = 0" { base with Engine.k = 0 };
  rejects "degree bound = 0" { base with Engine.degree_bound = 0 };
  rejects "alpha = 0" { base with Engine.transfer_alpha = 0.0 };
  rejects "alpha = 1" { base with Engine.transfer_alpha = 1.0 };
  rejects "alpha > 1" { base with Engine.transfer_alpha = 1.5 };
  rejects "table radius = 0" { base with Engine.table_radius = 0 };
  rejects "two-level fanout = 0" { base with Engine.aggregation = Engine.Two_level 0 };
  rejects "negative retries" { base with Engine.max_retries = -1 };
  rejects "negative backoff" { base with Engine.backoff = -0.1 }

let test_run_validates_before_work () =
  let graph = Graph.create ~n:3 ~edges:[ (0, 1) ] in
  let p = En_program.make ~epsilon:50.0 ~l:8 ~degree:1 ~iterations:1 () in
  let states =
    En_program.encode_instance
      { Reference.en_n = 3; cash = [| 1.0; 1.0; 1.0 |]; debts = [ (0, 1, 1.0) ] }
      ~graph ~l:8 ~degree:1 ~scale:1.0
  in
  let cfg = { (Engine.default_config grp ~k:1 ~degree_bound:1) with Engine.transfer_alpha = 2.0 } in
  Alcotest.(check bool) "run rejects invalid config" true
    (try
       ignore (Engine.run cfg p ~graph ~initial_states:states);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Engine under faults                                                 *)
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

let run_en ?(k = 2) ?(seed = "faults") ~plan () =
  let graph, d, p, states = en_fixture () in
  let expected = Engine.run_plaintext p ~degree_bound:d ~graph ~initial_states:states in
  let cfg =
    { (Engine.default_config grp ~k ~degree_bound:d ~seed) with Engine.fault_plan = plan }
  in
  (expected, Engine.run cfg p ~graph ~initial_states:states)

let test_engine_replay_with_faults () =
  let plan =
    [
      Fault.Crash_node { node = 1; from_round = 2; until_round = 3 };
      Fault.Drop_transfer { src = 0; dst = 1; round = 1 };
      Fault.Miss_decrypt { src = 2; dst = 3; round = 2 };
    ]
  in
  let _, r1 = run_en ~plan () in
  let _, r2 = run_en ~plan () in
  Alcotest.(check int) "same output" r1.Engine.output r2.Engine.output;
  Alcotest.(check int) "same retries" r1.Engine.transfer_retries r2.Engine.transfer_retries;
  Alcotest.(check bool) "same fault counters" true
    (r1.Engine.faults_injected = r2.Engine.faults_injected);
  Alcotest.(check (float 0.0)) "same epsilon charge" r1.Engine.retry_epsilon
    r2.Engine.retry_epsilon

let test_engine_crash_recovery_en () =
  let plan = [ Fault.Crash_node { node = 1; from_round = 2; until_round = 3 } ] in
  let expected, r = run_en ~plan () in
  Alcotest.(check int) "crash fired" 1
    (List.assoc Fault.Crash r.Engine.faults_injected);
  Alcotest.(check bool) "blocks re-shared" true (r.Engine.crash_recoveries > 0);
  Alcotest.(check int) "output unaffected by crash" expected r.Engine.output

let test_engine_edge_faults_recovered_en () =
  let graph, _, _, _ = en_fixture () in
  let plan =
    Fault.random_plan ~seed:11 ~rounds:3 ~nodes:4 ~edges:(Graph.edges graph)
      { Fault.no_faults with drop = 0.3; corrupt = 0.2; miss = 0.3; delay = 0.2 }
  in
  let expected, r = run_en ~plan () in
  let fired = List.fold_left (fun a (_, c) -> a + c) 0 r.Engine.faults_injected in
  Alcotest.(check bool) "plan actually injected" true (fired > 0);
  Alcotest.(check bool) "transfers were retried" true (r.Engine.transfer_retries > 0);
  Alcotest.(check int) "nothing left unrecovered" 0 r.Engine.unrecovered_failures;
  Alcotest.(check int) "output exact" expected r.Engine.output;
  let comm_recovery = List.assoc Engine.Communication r.Engine.recovery_seconds in
  Alcotest.(check bool) "backoff accounted" true (comm_recovery > 0.0)

let test_engine_crash_recovery_egj () =
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
  let expected = Engine.run_plaintext p ~degree_bound:d ~graph ~initial_states:states in
  let plan =
    [
      Fault.Crash_node { node = 2; from_round = 2; until_round = 3 };
      Fault.Drop_transfer { src = 0; dst = 1; round = 1 };
    ]
  in
  let cfg =
    { (Engine.default_config grp ~k:2 ~degree_bound:d ~seed:"egj-crash") with
      Engine.fault_plan = plan }
  in
  let r = Engine.run cfg p ~graph ~initial_states:states in
  Alcotest.(check bool) "crash recovered" true (r.Engine.crash_recoveries > 0);
  Alcotest.(check int) "nothing unrecovered" 0 r.Engine.unrecovered_failures;
  Alcotest.(check int) "output exact" expected r.Engine.output

let test_engine_acceptance_n20 () =
  (* The headline scenario: N = 20 banks, >= 5% per-(edge, round) chance of
     a forced transfer miss plus drops, and a mid-run crash of a block
     member. The run must complete, recover everything, match the
     plaintext reference exactly, and itemize the cost. *)
  let t = Prng.of_int 0x20AC in
  let topo = Dstress_graphgen.Topology.erdos_renyi t ~n:20 ~avg_degree:1.5 ~max_degree:3 in
  let inst = Dstress_graphgen.Banking.en_of_topology t topo () in
  let graph = En_program.graph_of_instance inst in
  let d = max 1 (Graph.max_degree graph) in
  let p = En_program.make ~epsilon:50.0 ~sensitivity:1 ~noise_max:2 ~l:10 ~degree:d ~iterations:2 () in
  let states = En_program.encode_instance inst ~graph ~l:10 ~degree:d ~scale:0.25 in
  let expected = Engine.run_plaintext p ~degree_bound:d ~graph ~initial_states:states in
  let plan =
    Fault.random_plan ~seed:5 ~rounds:3 ~nodes:20 ~edges:(Graph.edges graph)
      { Fault.no_faults with miss = 0.08; drop = 0.05 }
    @ [ Fault.Crash_node { node = 3; from_round = 2; until_round = 3 } ]
  in
  let cfg =
    { (Engine.default_config grp ~k:3 ~degree_bound:d ~seed:"n20") with
      Engine.fault_plan = plan }
  in
  let r = Engine.run cfg p ~graph ~initial_states:states in
  Alcotest.(check int) "output matches plaintext exactly" expected r.Engine.output;
  let by k = List.assoc k r.Engine.faults_injected in
  Alcotest.(check bool) "misses injected" true (by Fault.Decrypt_miss > 0);
  Alcotest.(check int) "crash injected" 1 (by Fault.Crash);
  Alcotest.(check bool) "report itemizes retries" true (r.Engine.transfer_retries > 0);
  Alcotest.(check int) "all failures recovered" 0 r.Engine.unrecovered_failures;
  Alcotest.(check int) "recovered = failures" r.Engine.transfer_failures
    r.Engine.recovered_failures;
  Alcotest.(check bool) "retried releases charged" true (r.Engine.retry_epsilon > 0.0);
  Alcotest.(check bool) "crash handoff accounted" true
    (r.Engine.crash_recoveries > 0
    && List.assoc Engine.Computation r.Engine.recovery_seconds > 0.0)

(* ------------------------------------------------------------------ *)
(* Executor equivalence under faults: a faulty run must produce the     *)
(* same report under the sequential and the domain-pool backends —      *)
(* fault resolution happens in sequential prologues and all recovery    *)
(* randomness is event-keyed, so the schedule cannot change anything.   *)
(* ------------------------------------------------------------------ *)

module Executor = Dstress_runtime.Executor

let check_same_report ~nodes label (a : Engine.report) (b : Engine.report) =
  let phases l = List.map (fun (p, v) -> (Engine.phase_name p, v)) l in
  Alcotest.(check int) (label ^ ": output") a.Engine.output b.Engine.output;
  Alcotest.(check (list (pair string int))) (label ^ ": phase bytes")
    (phases a.Engine.phase_bytes) (phases b.Engine.phase_bytes);
  Alcotest.(check int) (label ^ ": total traffic")
    (Traffic.total a.Engine.traffic) (Traffic.total b.Engine.traffic);
  Alcotest.(check (list int)) (label ^ ": per-node traffic")
    (List.init nodes (Traffic.by_node a.Engine.traffic))
    (List.init nodes (Traffic.by_node b.Engine.traffic));
  Alcotest.(check int) (label ^ ": failures") a.Engine.transfer_failures
    b.Engine.transfer_failures;
  Alcotest.(check int) (label ^ ": recovered") a.Engine.recovered_failures
    b.Engine.recovered_failures;
  Alcotest.(check int) (label ^ ": unrecovered") a.Engine.unrecovered_failures
    b.Engine.unrecovered_failures;
  Alcotest.(check int) (label ^ ": retries") a.Engine.transfer_retries
    b.Engine.transfer_retries;
  Alcotest.(check int) (label ^ ": crash recoveries") a.Engine.crash_recoveries
    b.Engine.crash_recoveries;
  Alcotest.(check bool) (label ^ ": fault counters") true
    (a.Engine.faults_injected = b.Engine.faults_injected);
  Alcotest.(check (float 0.0)) (label ^ ": retry epsilon") a.Engine.retry_epsilon
    b.Engine.retry_epsilon;
  let recov l = List.map (fun (p, v) -> (Engine.phase_name p, v)) l in
  Alcotest.(check (list (pair string (float 0.0)))) (label ^ ": recovery seconds")
    (recov a.Engine.recovery_seconds) (recov b.Engine.recovery_seconds)

let test_executors_agree_en_faulty () =
  let graph, d, p, states = en_fixture () in
  let plan =
    Fault.random_plan ~seed:11 ~rounds:3 ~nodes:4 ~edges:(Graph.edges graph)
      { Fault.no_faults with drop = 0.3; corrupt = 0.2; miss = 0.3; delay = 0.2 }
    @ [ Fault.Crash_node { node = 1; from_round = 2; until_round = 3 } ]
  in
  let run executor =
    let cfg =
      { (Engine.default_config grp ~k:2 ~degree_bound:d ~seed:"exec-faults") with
        Engine.fault_plan = plan; executor }
    in
    Engine.run cfg p ~graph ~initial_states:states
  in
  let seq = run Executor.sequential and par = run (Executor.parallel ~jobs:4) in
  let fired = List.fold_left (fun a (_, c) -> a + c) 0 seq.Engine.faults_injected in
  Alcotest.(check bool) "plan actually injected" true (fired > 0);
  Alcotest.(check bool) "retries exercised" true (seq.Engine.transfer_retries > 0);
  check_same_report ~nodes:(Graph.n graph) "EN faulty" seq par

let test_executors_agree_egj () =
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
  let plan = [ Fault.Crash_node { node = 2; from_round = 2; until_round = 3 } ] in
  let run executor =
    let cfg =
      { (Engine.default_config grp ~k:2 ~degree_bound:d ~seed:"exec-egj") with
        Engine.fault_plan = plan; executor }
    in
    Engine.run cfg p ~graph ~initial_states:states
  in
  check_same_report ~nodes:(Graph.n graph) "EGJ" (run Executor.sequential)
    (run (Executor.parallel ~jobs:4))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "faults"
    [
      ( "plans",
        [
          Alcotest.test_case "random plan deterministic" `Quick test_random_plan_deterministic;
          Alcotest.test_case "bad rates rejected" `Quick test_random_plan_rejects_bad_rates;
          Alcotest.test_case "random crashes distinct" `Quick test_random_crashes_distinct;
          Alcotest.test_case "injector counters" `Quick test_injector_counts_only_fired;
          Alcotest.test_case "delay ticks contract" `Quick test_delay_ticks_contract;
        ] );
      ( "protocol recovery",
        [
          Alcotest.test_case "forced miss recovered" `Quick test_forced_miss_recovered_by_retry;
          Alcotest.test_case "miss without recovery flagged" `Quick
            test_forced_miss_without_recovery_is_flagged;
          Alcotest.test_case "drop without recovery" `Quick test_dropped_transfer_without_recovery;
          Alcotest.test_case "drop recovered" `Quick test_dropped_transfer_recovered;
          Alcotest.test_case "corruption recovered" `Quick test_corrupt_transfer_recovered;
          Alcotest.test_case "escalation table" `Quick test_escalation_table_rescues_tiny_table;
          Alcotest.test_case "retry exhaustion" `Quick test_retry_exhaustion_reports_misses;
          Alcotest.test_case "negative retries rejected" `Quick test_negative_retries_rejected;
        ] );
      ( "config validation",
        [
          Alcotest.test_case "field checks" `Quick test_config_validation;
          Alcotest.test_case "run validates up front" `Quick test_run_validates_before_work;
        ] );
      ( "engine",
        [
          Alcotest.test_case "deterministic replay" `Quick test_engine_replay_with_faults;
          Alcotest.test_case "EN crash recovery" `Quick test_engine_crash_recovery_en;
          Alcotest.test_case "EN edge faults recovered" `Quick test_engine_edge_faults_recovered_en;
          Alcotest.test_case "EGJ crash recovery" `Quick test_engine_crash_recovery_egj;
          Alcotest.test_case "N=20 acceptance scenario" `Slow test_engine_acceptance_n20;
        ] );
      ( "executor equivalence",
        [
          Alcotest.test_case "EN faulty run" `Quick test_executors_agree_en_faulty;
          Alcotest.test_case "EGJ crash run" `Quick test_executors_agree_egj;
        ] );
    ]
