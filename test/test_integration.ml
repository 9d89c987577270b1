(* Cross-layer integration tests: whole-protocol properties that no
   single library suite can check. *)

module Bitvec = Dstress_util.Bitvec
module Prng = Dstress_util.Prng
module Group = Dstress_crypto.Group
module Ot_ext = Dstress_crypto.Ot_ext
module Word = Dstress_circuit.Word
module Builder = Dstress_circuit.Builder
module Graph = Dstress_runtime.Graph
module Engine = Dstress_runtime.Engine
module Vertex_program = Dstress_runtime.Vertex_program
module Reference = Dstress_risk.Reference
module En_program = Dstress_risk.En_program
module Budget = Dstress_dp.Budget

let grp = Group.by_name "toy"

let small_economy =
  {
    Reference.en_n = 4;
    cash = [| 0.0; 12.0; 20.0; 8.0 |];
    debts = [ (0, 1, 15.0); (1, 2, 10.0); (2, 3, 12.0); (3, 0, 4.0) ];
  }

let run_engine ?(epsilon = 50.0) ?(seed = "int") ?(k = 2) ?(iterations = 3) () =
  let graph = En_program.graph_of_instance small_economy in
  let d = Graph.max_degree graph in
  let p = En_program.make ~epsilon ~sensitivity:1 ~noise_max:30 ~l:12 ~degree:d ~iterations () in
  let states = En_program.encode_instance small_economy ~graph ~l:12 ~degree:d ~scale:0.25 in
  let cfg = { (Engine.default_config grp ~k ~degree_bound:d) with Engine.seed } in
  (p, graph, states, Engine.run cfg p ~graph ~initial_states:states)

(* ------------------------------------------------------------------ *)

let test_engine_deterministic () =
  let _, _, _, r1 = run_engine ~seed:"same" () in
  let _, _, _, r2 = run_engine ~seed:"same" () in
  Alcotest.(check int) "same seed, same output" r1.Engine.output r2.Engine.output

let test_noise_varies_with_seed () =
  let outputs =
    List.init 6 (fun i -> (let _, _, _, r = run_engine ~epsilon:0.8 ~seed:("s" ^ string_of_int i) () in r.Engine.output))
  in
  Alcotest.(check bool) "distinct noised outputs" true
    (List.length (List.sort_uniq compare outputs) > 1)

let test_noise_scales_with_epsilon () =
  (* Mean absolute deviation from the plaintext value must shrink as
     epsilon grows. *)
  let p, graph, states, _ = run_engine () in
  let truth =
    Engine.run_plaintext p ~degree_bound:(Graph.max_degree graph) ~graph
      ~initial_states:states
  in
  let mad epsilon =
    let errs =
      List.init 8 (fun i ->
          let _, _, _, r = run_engine ~epsilon ~seed:(Printf.sprintf "e%f-%d" epsilon i) () in
          abs (r.Engine.output - truth))
    in
    float_of_int (List.fold_left ( + ) 0 errs) /. 8.0
  in
  let loose = mad 0.4 and tight = mad 8.0 in
  Alcotest.(check bool)
    (Printf.sprintf "eps=0.4 noisier than eps=8 (%.1f vs %.1f)" loose tight)
    true (loose > tight)

let test_crypto_backend_end_to_end () =
  (* The full cryptographic OT path through the whole engine, on the
     smallest meaningful instance. *)
  let graph = Graph.create ~n:3 ~edges:[ (0, 1); (1, 2); (2, 0) ] in
  let d = Graph.max_degree graph in
  let p = En_program.make ~epsilon:50.0 ~sensitivity:1 ~noise_max:4 ~l:8 ~degree:d ~iterations:1 () in
  let inst =
    { Reference.en_n = 3; cash = [| 0.0; 10.0; 10.0 |];
      debts = [ (0, 1, 8.0); (1, 2, 5.0); (2, 0, 3.0) ] }
  in
  let states = En_program.encode_instance inst ~graph ~l:8 ~degree:d ~scale:1.0 in
  let expected = Engine.run_plaintext p ~degree_bound:d ~graph ~initial_states:states in
  let cfg =
    { (Engine.default_config grp ~k:1 ~degree_bound:d ~seed:"crypto-e2e") with
      Engine.ot_mode = Ot_ext.Crypto }
  in
  let r = Engine.run cfg p ~graph ~initial_states:states in
  Alcotest.(check int) "crypto backend matches" expected r.Engine.output

let test_backends_agree () =
  (* Same run, both OT backends: identical protocol result (noise comes
     from the same engine PRNG, not the OT layer). *)
  let graph = En_program.graph_of_instance small_economy in
  let d = Graph.max_degree graph in
  let p = En_program.make ~epsilon:1.0 ~sensitivity:5 ~noise_max:30 ~l:10 ~degree:d ~iterations:2 () in
  let states = En_program.encode_instance small_economy ~graph ~l:10 ~degree:d ~scale:0.25 in
  let run mode =
    let cfg =
      { (Engine.default_config grp ~k:1 ~degree_bound:d ~seed:"agree") with
        Engine.ot_mode = mode }
    in
    Engine.run cfg p ~graph ~initial_states:states
  in
  let sim = run Ot_ext.Simulation and crypto = run Ot_ext.Crypto in
  Alcotest.(check int) "identical outputs" sim.Engine.output crypto.Engine.output;
  Alcotest.(check int) "identical traffic"
    (Dstress_mpc.Traffic.total sim.Engine.traffic)
    (Dstress_mpc.Traffic.total crypto.Engine.traffic)

let test_isolated_vertex () =
  (* A vertex with no edges must still participate (its block computes,
     it contributes to the aggregate). *)
  let graph = Graph.create ~n:3 ~edges:[ (0, 1) ] in
  let p =
    {
      Vertex_program.name = "count";
      state_bits = 4;
      message_bits = 4;
      iterations = 1;
      sensitivity = 1;
      epsilon = 50.0;
      noise_max_magnitude = 2;
      agg_bits = 8;
      build_update = (fun _b ~state ~incoming -> (state, Array.map (fun _ -> state) incoming));
      build_aggregand = (fun b ~state -> Word.zero_extend b state ~bits:8);
    }
  in
  let states = [| Bitvec.of_int ~bits:4 3; Bitvec.of_int ~bits:4 5; Bitvec.of_int ~bits:4 7 |] in
  let cfg = Engine.default_config grp ~k:1 ~degree_bound:1 ~seed:"iso" in
  let r = Engine.run cfg p ~graph ~initial_states:states in
  Alcotest.(check int) "sum includes isolated vertex" 15 r.Engine.output

let test_edgeless_graph () =
  let graph = Graph.create ~n:3 ~edges:[] in
  let p =
    {
      Vertex_program.name = "sum";
      state_bits = 4;
      message_bits = 4;
      iterations = 2;
      sensitivity = 1;
      epsilon = 50.0;
      noise_max_magnitude = 2;
      agg_bits = 8;
      build_update = (fun _b ~state ~incoming -> (state, Array.map (fun _ -> state) incoming));
      build_aggregand = (fun b ~state -> Word.zero_extend b state ~bits:8);
    }
  in
  let states = Array.init 3 (fun i -> Bitvec.of_int ~bits:4 (i + 1)) in
  let cfg = Engine.default_config grp ~k:1 ~degree_bound:1 ~seed:"edgeless" in
  let r = Engine.run cfg p ~graph ~initial_states:states in
  Alcotest.(check int) "no communication, correct sum" 6 r.Engine.output;
  Alcotest.(check int) "no comm traffic" 0
    (List.assoc Engine.Communication r.Engine.phase_bytes)

let test_tiny_table_failures_surface () =
  (* Undersized decryption tables must show up in the report, not crash. *)
  let graph = En_program.graph_of_instance small_economy in
  let d = Graph.max_degree graph in
  let p = En_program.make ~epsilon:50.0 ~sensitivity:1 ~noise_max:4 ~l:8 ~degree:d ~iterations:2 () in
  let states = En_program.encode_instance small_economy ~graph ~l:8 ~degree:d ~scale:1.0 in
  let cfg =
    { (Engine.default_config grp ~k:2 ~degree_bound:d ~seed:"tiny") with
      Engine.table_radius = 1; Engine.transfer_alpha = 0.95 }
  in
  let r = Engine.run cfg p ~graph ~initial_states:states in
  Alcotest.(check bool) "failures recorded" true (r.Engine.transfer_failures > 0)

let test_budget_over_runs () =
  (* The §4.5 policy driven through the accountant across a year. *)
  let module Utility = Dstress_costmodel.Utility in
  let p = Utility.paper_policy in
  let eps_max = p.Utility.epsilon_max and eps_q = Utility.epsilon_for_accuracy p in
  let runs = Utility.runs_per_year p in
  let b = Budget.create ~epsilon_max:eps_max in
  for i = 1 to runs do
    Alcotest.(check bool)
      (Printf.sprintf "run %d allowed" i)
      true
      (Result.is_ok (Budget.spend b ~label:(Printf.sprintf "stress-test-%d" i) ~epsilon:eps_q))
  done;
  Alcotest.(check bool) "fourth run refused" true
    (Result.is_error (Budget.spend b ~label:"one-too-many" ~epsilon:eps_q));
  Budget.replenish b;
  Alcotest.(check bool) "next year allowed" true
    (Result.is_ok (Budget.spend b ~label:"next-year" ~epsilon:eps_q))

let test_executors_agree_en () =
  (* The EN integration scenario must be bit-identical under the
     sequential and the domain-pool executors: output, per-phase bytes
     and the full per-node traffic breakdown. *)
  let graph = En_program.graph_of_instance small_economy in
  let d = Graph.max_degree graph in
  let p = En_program.make ~epsilon:1.0 ~sensitivity:1 ~noise_max:30 ~l:12 ~degree:d ~iterations:3 () in
  let states = En_program.encode_instance small_economy ~graph ~l:12 ~degree:d ~scale:0.25 in
  let run executor =
    let cfg =
      { (Engine.default_config grp ~k:2 ~degree_bound:d ~seed:"exec-en") with
        Engine.executor }
    in
    Engine.run cfg p ~graph ~initial_states:states
  in
  let seq = run Dstress_runtime.Executor.sequential in
  let par = run (Dstress_runtime.Executor.parallel ~jobs:4) in
  Alcotest.(check int) "same output" seq.Engine.output par.Engine.output;
  Alcotest.(check (list (pair string int))) "same phase bytes"
    (List.map (fun (p, b) -> (Engine.phase_name p, b)) seq.Engine.phase_bytes)
    (List.map (fun (p, b) -> (Engine.phase_name p, b)) par.Engine.phase_bytes);
  let module T = Dstress_mpc.Traffic in
  Alcotest.(check (list int)) "same per-node traffic"
    (List.init (Graph.n graph) (T.by_node seq.Engine.traffic))
    (List.init (Graph.n graph) (T.by_node par.Engine.traffic));
  Alcotest.(check int) "same mpc OTs" seq.Engine.mpc_ots par.Engine.mpc_ots

let test_report_internal_consistency () =
  let _, _, _, r = run_engine () in
  (* OT count = AND gates x n(n-1) summed across sessions; with uniform
     block size it divides evenly. *)
  Alcotest.(check int) "OTs = ANDs * pairs" (r.Engine.mpc_and_gates * 3 * 2) r.Engine.mpc_ots;
  let phase_total = List.fold_left (fun a (_, b) -> a + b) 0 r.Engine.phase_bytes in
  Alcotest.(check int) "phase bytes sum to matrix total"
    (Dstress_mpc.Traffic.total r.Engine.traffic)
    phase_total

(* ------------------------------------------------------------------ *)

let prop_engine_matches_plaintext_on_random_graphs =
  QCheck2.Test.make ~name:"engine = plaintext circuit on random instances" ~count:6
    QCheck2.Gen.(int_bound 1000)
    (fun seed ->
      let t = Prng.of_int seed in
      let topo =
        Dstress_graphgen.Topology.erdos_renyi t ~n:5 ~avg_degree:1.5 ~max_degree:3
      in
      let inst = Dstress_graphgen.Banking.en_of_topology t topo () in
      let graph = En_program.graph_of_instance inst in
      let d = max 1 (Graph.max_degree graph) in
      let p =
        En_program.make ~epsilon:50.0 ~sensitivity:1 ~noise_max:2 ~l:10 ~degree:d
          ~iterations:2 ()
      in
      let states = En_program.encode_instance inst ~graph ~l:10 ~degree:d ~scale:0.25 in
      let expected = Engine.run_plaintext p ~degree_bound:d ~graph ~initial_states:states in
      let cfg = Engine.default_config grp ~k:1 ~degree_bound:d ~seed:(string_of_int seed) in
      let r = Engine.run cfg p ~graph ~initial_states:states in
      r.Engine.output = expected)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest [ prop_engine_matches_plaintext_on_random_graphs ]
  in
  Alcotest.run "integration"
    [
      ( "engine",
        [
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "noise varies with seed" `Quick test_noise_varies_with_seed;
          Alcotest.test_case "noise scales with epsilon" `Slow test_noise_scales_with_epsilon;
          Alcotest.test_case "crypto backend e2e" `Slow test_crypto_backend_end_to_end;
          Alcotest.test_case "backends agree" `Slow test_backends_agree;
          Alcotest.test_case "isolated vertex" `Quick test_isolated_vertex;
          Alcotest.test_case "edgeless graph" `Quick test_edgeless_graph;
          Alcotest.test_case "table failures surface" `Quick test_tiny_table_failures_surface;
          Alcotest.test_case "report consistency" `Quick test_report_internal_consistency;
          Alcotest.test_case "executors agree on EN" `Quick test_executors_agree_en;
        ] );
      ( "policy",
        [ Alcotest.test_case "yearly budget" `Quick test_budget_over_runs ] );
      ("properties", qsuite);
    ]
