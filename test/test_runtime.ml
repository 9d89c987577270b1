module Bitvec = Dstress_util.Bitvec
module Prng = Dstress_util.Prng
module Group = Dstress_crypto.Group
module Builder = Dstress_circuit.Builder
module Word = Dstress_circuit.Word
module Circuit = Dstress_circuit.Circuit
open Dstress_runtime

let grp = Group.by_name "toy"

(* ------------------------------------------------------------------ *)
(* Graph                                                               *)
(* ------------------------------------------------------------------ *)

let diamond () = Graph.create ~n:4 ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_graph_basics () =
  let g = diamond () in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check (list int)) "out 0" [ 1; 2 ] (Graph.out_neighbors g 0);
  Alcotest.(check (list int)) "in 3" [ 1; 2 ] (Graph.in_neighbors g 3);
  Alcotest.(check (list int)) "neighbor slots of 1" [ 0; 1 ]
    [ Graph.neighbor_slot g ~owner:1 ~other:0; Graph.neighbor_slot g ~owner:1 ~other:3 ];
  Alcotest.(check int) "max degree" 2 (Graph.max_degree g)

let test_graph_slots () =
  let g = diamond () in
  Alcotest.(check int) "out slot 0->2" 1 (Graph.out_slot g ~src:0 ~dst:2);
  Alcotest.(check int) "in slot 2->3" 1 (Graph.in_slot g ~src:2 ~dst:3);
  Alcotest.(check int) "neighbor slot" 1 (Graph.neighbor_slot g ~owner:3 ~other:2);
  Alcotest.check_raises "missing edge" Not_found (fun () ->
      ignore (Graph.out_slot g ~src:3 ~dst:0))

let test_graph_rejects_malformed () =
  let bad f = Alcotest.(check bool) "rejected" true
    (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  bad (fun () -> Graph.create ~n:2 ~edges:[ (0, 0) ]);
  bad (fun () -> Graph.create ~n:2 ~edges:[ (0, 5) ]);
  bad (fun () -> Graph.create ~n:2 ~edges:[ (0, 1); (0, 1) ]);
  bad (fun () -> Graph.create ~n:0 ~edges:[])

(* ------------------------------------------------------------------ *)
(* Vertex programs: a tiny "token passing" program for engine tests.   *)
(*                                                                     *)
(* Each vertex's state is one l-bit counter; every round it sends its  *)
(* counter to each out-neighbor and replaces the counter with the sum  *)
(* of incoming messages. The aggregate is the sum of all counters:     *)
(* on a directed ring the total token count is invariant.              *)
(* ------------------------------------------------------------------ *)

let token_program ~l ~iterations ~noisy =
  {
    Vertex_program.name = "token";
    state_bits = l;
    message_bits = l;
    iterations;
    sensitivity = 1;
    epsilon = (if noisy then 0.5 else 50.0 (* huge eps ~ negligible noise *));
    noise_max_magnitude = (if noisy then 40 else 1);
    agg_bits = l + 6;
    build_update =
      (fun b ~state ~incoming ->
        let total =
          Word.truncate
            (Word.sum b ~bits:(l + 4) (Array.to_list incoming))
            ~bits:l
        in
        (total, Array.map (fun _ -> state) incoming));
    build_aggregand = (fun b ~state -> Word.zero_extend b state ~bits:(l + 6));
  }

let ring_graph n = Graph.create ~n ~edges:(List.init n (fun i -> (i, (i + 1) mod n)))

let test_update_circuit_shapes () =
  let p = token_program ~l:8 ~iterations:2 ~noisy:false in
  let c = Vertex_program.update_circuit p ~degree:3 in
  Alcotest.(check int) "inputs" (8 + 24) c.Circuit.num_inputs;
  Alcotest.(check int) "outputs" (8 + 24) (Array.length c.Circuit.outputs)

let test_update_circuit_rejects_bad_fragment () =
  let bad =
    { (token_program ~l:8 ~iterations:1 ~noisy:false) with
      Vertex_program.build_update =
        (fun b ~state ~incoming ->
          ignore incoming;
          (state, [| Word.constant b ~bits:4 0 |]))
    }
  in
  Alcotest.(check bool) "rejected" true
    (try ignore (Vertex_program.update_circuit bad ~degree:1); false
     with Invalid_argument _ -> true)

let test_aggregate_circuit_zero_noise_is_sum () =
  let p = token_program ~l:8 ~iterations:1 ~noisy:false in
  let c = Vertex_program.aggregate_circuit p ~count:3 in
  let inputs =
    Array.concat
      [
        Array.init 8 (fun i -> (10 lsr i) land 1 = 1);
        Array.init 8 (fun i -> (20 lsr i) land 1 = 1);
        Array.init 8 (fun i -> (30 lsr i) land 1 = 1);
        Array.make 33 false;
      ]
  in
  let out = Circuit.eval c inputs in
  Alcotest.(check int) "sum" 60 (Bitvec.to_int (Bitvec.of_bool_array out))

let test_partial_and_combine_match_single () =
  let p = token_program ~l:8 ~iterations:1 ~noisy:false in
  let states = [ 3; 7; 11; 19; 23 ] in
  let eval c inputs =
    Bitvec.to_int (Bitvec.of_bool_array (Circuit.eval c (Array.of_list inputs)))
  in
  let bits_of v n = List.init n (fun i -> (v lsr i) land 1 = 1) in
  (* direct: all five states + zero noise *)
  let direct =
    eval
      (Vertex_program.aggregate_circuit p ~count:5)
      (List.concat_map (fun v -> bits_of v 8) states @ bits_of 0 33)
  in
  (* two-level: groups of 3 and 2, then combine with zero noise *)
  let part1 =
    eval
      (Vertex_program.partial_aggregate_circuit p ~count:3)
      (List.concat_map (fun v -> bits_of v 8) [ 3; 7; 11 ])
  in
  let part2 =
    eval
      (Vertex_program.partial_aggregate_circuit p ~count:2)
      (List.concat_map (fun v -> bits_of v 8) [ 19; 23 ])
  in
  let combined =
    eval
      (Vertex_program.combine_circuit p ~count:2 ~noised:true)
      (bits_of part1 14 @ bits_of part2 14 @ bits_of 0 33)
  in
  Alcotest.(check int) "two-level equals single" direct combined

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let init_states prng n l = Array.init n (fun _ -> Bitvec.of_int ~bits:l (1 + Prng.int prng 10))

let test_engine_matches_plaintext_ring () =
  let n = 6 and l = 8 in
  let g = ring_graph n in
  let p = token_program ~l ~iterations:3 ~noisy:false in
  let states = init_states (Prng.of_int 7) n l in
  let expected = Engine.run_plaintext p ~degree_bound:2 ~graph:g ~initial_states:states in
  let cfg = Engine.default_config grp ~k:2 ~degree_bound:2 in
  let report = Engine.run cfg p ~graph:g ~initial_states:states in
  (* Noise is negligible at eps=50: outputs must agree exactly. *)
  Alcotest.(check int) "engine = plaintext" expected report.Engine.output;
  Alcotest.(check int) "no transfer failures" 0 report.Engine.transfer_failures

let test_engine_token_conservation () =
  (* On a ring, tokens alternate between vertex states (after odd
     computation steps) and in-flight messages (after even ones); with an
     odd iteration count the engine's final computation step lands the
     tokens back in the states, so the aggregate equals the initial
     total. *)
  let n = 5 and l = 8 in
  let g = ring_graph n in
  let p = token_program ~l ~iterations:3 ~noisy:false in
  let states = init_states (Prng.of_int 9) n l in
  let total =
    Array.fold_left (fun acc s -> acc + Bitvec.to_int s) 0 states
  in
  Alcotest.(check int) "tokens conserved" total
    (Engine.run_plaintext p ~degree_bound:2 ~graph:g ~initial_states:states)

let test_engine_noise_applied () =
  (* With real eps, repeated runs under different seeds give different
     outputs centered near the true value. *)
  let n = 4 and l = 8 in
  let g = ring_graph n in
  let p = token_program ~l ~iterations:1 ~noisy:true in
  let states = init_states (Prng.of_int 3) n l in
  let expected = Engine.run_plaintext p ~degree_bound:2 ~graph:g ~initial_states:states
  in
  let outputs =
    List.init 5 (fun i ->
        let cfg =
          { (Engine.default_config grp ~k:1 ~degree_bound:2) with
            Engine.seed = "noise" ^ string_of_int i }
        in
        (Engine.run cfg p ~graph:g ~initial_states:states).Engine.output)
  in
  Alcotest.(check bool) "outputs vary" true
    (List.length (List.sort_uniq compare outputs) > 1);
  List.iter
    (fun o ->
      Alcotest.(check bool) "within noise bound" true (abs (o - expected) <= 40))
    outputs

let test_engine_two_level_aggregation () =
  let n = 6 and l = 8 in
  let g = ring_graph n in
  let p = token_program ~l ~iterations:2 ~noisy:false in
  let states = init_states (Prng.of_int 11) n l in
  let expected = Engine.run_plaintext p ~degree_bound:2 ~graph:g ~initial_states:states in
  let cfg =
    { (Engine.default_config grp ~k:2 ~degree_bound:2) with
      Engine.aggregation = Engine.Two_level 3 }
  in
  let report = Engine.run cfg p ~graph:g ~initial_states:states in
  Alcotest.(check int) "two-level matches" expected report.Engine.output

let test_engine_phase_accounting () =
  let n = 4 and l = 8 in
  let g = ring_graph n in
  let p = token_program ~l ~iterations:2 ~noisy:false in
  let states = init_states (Prng.of_int 5) n l in
  let cfg = Engine.default_config grp ~k:1 ~degree_bound:2 in
  let report = Engine.run cfg p ~graph:g ~initial_states:states in
  List.iter
    (fun phase ->
      let bytes = List.assoc phase report.Engine.phase_bytes in
      Alcotest.(check bool) (Engine.phase_name phase ^ " has traffic") true (bytes > 0))
    [ Engine.Setup; Engine.Initialization; Engine.Computation; Engine.Communication;
      Engine.Aggregation ];
  let total_phases =
    List.fold_left (fun acc (_, b) -> acc + b) 0 report.Engine.phase_bytes
  in
  Alcotest.(check int) "phases sum to total" (Dstress_mpc.Traffic.total report.Engine.traffic)
    total_phases

let test_engine_mpc_counters () =
  let n = 4 and l = 6 in
  let g = ring_graph n in
  let p = token_program ~l ~iterations:1 ~noisy:false in
  let states = init_states (Prng.of_int 13) n l in
  let cfg = Engine.default_config grp ~k:1 ~degree_bound:2 in
  let report = Engine.run cfg p ~graph:g ~initial_states:states in
  Alcotest.(check bool) "rounds counted" true (report.Engine.mpc_rounds > 0);
  Alcotest.(check bool) "ANDs counted" true (report.Engine.mpc_and_gates > 0);
  Alcotest.(check bool) "OTs counted" true (report.Engine.mpc_ots > 0)

(* ------------------------------------------------------------------ *)
(* Executor equivalence: the parallel backend must be bit-identical to  *)
(* the sequential one — output, per-phase bytes, the whole traffic      *)
(* matrix and every counter. Randomness is keyed per task, so the       *)
(* schedule cannot leak into the result.                                *)
(* ------------------------------------------------------------------ *)

module Traffic = Dstress_mpc.Traffic

let check_same_report ~nodes label (a : Engine.report) (b : Engine.report) =
  let phases l = List.map (fun (p, v) -> (Engine.phase_name p, v)) l in
  Alcotest.(check int) (label ^ ": output") a.Engine.output b.Engine.output;
  Alcotest.(check (list (pair string int))) (label ^ ": phase bytes")
    (phases a.Engine.phase_bytes) (phases b.Engine.phase_bytes);
  let t = a.Engine.traffic and t' = b.Engine.traffic in
  Alcotest.(check int) (label ^ ": total traffic") (Traffic.total t) (Traffic.total t');
  Alcotest.(check (list int)) (label ^ ": per-node traffic")
    (List.init nodes (Traffic.by_node t))
    (List.init nodes (Traffic.by_node t'));
  Alcotest.(check int) (label ^ ": external traffic") (Traffic.external_total t)
    (Traffic.external_total t');
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
  Alcotest.(check int) (label ^ ": mpc rounds") a.Engine.mpc_rounds b.Engine.mpc_rounds;
  Alcotest.(check int) (label ^ ": mpc ANDs") a.Engine.mpc_and_gates b.Engine.mpc_and_gates;
  Alcotest.(check int) (label ^ ": mpc OTs") a.Engine.mpc_ots b.Engine.mpc_ots

let test_executors_agree_ring () =
  let n = 6 and l = 8 in
  let g = ring_graph n in
  let p = token_program ~l ~iterations:3 ~noisy:true in
  let states = init_states (Prng.of_int 21) n l in
  let run executor =
    let cfg =
      { (Engine.default_config grp ~k:2 ~degree_bound:2 ~seed:"exec-eq") with
        Engine.executor }
    in
    Engine.run cfg p ~graph:g ~initial_states:states
  in
  check_same_report ~nodes:n "ring" (run Executor.sequential) (run (Executor.parallel ~jobs:4))

let test_executors_agree_two_level_uneven () =
  (* n = 5 with fan-out 3 leaves an uneven last group (3 + 2): the leaf
     batch has heterogeneous tasks and the root must still combine them
     in group order. *)
  let n = 5 and l = 8 in
  let g = ring_graph n in
  let p = token_program ~l ~iterations:2 ~noisy:true in
  let states = init_states (Prng.of_int 23) n l in
  let run executor =
    let cfg =
      { (Engine.default_config grp ~k:2 ~degree_bound:2 ~seed:"exec-2lvl") with
        Engine.aggregation = Engine.Two_level 3; Engine.executor }
    in
    Engine.run cfg p ~graph:g ~initial_states:states
  in
  check_same_report ~nodes:n "two-level" (run Executor.sequential)
    (run (Executor.parallel ~jobs:4))

let test_executor_map_basics () =
  let sq = Executor.map Executor.sequential 5 (fun i -> i * i) in
  let pl = Executor.map (Executor.parallel ~jobs:3) 5 (fun i -> i * i) in
  Alcotest.(check (array int)) "map results in index order" sq pl;
  Alcotest.(check string) "parallel name" "parallel:3"
    (Executor.name (Executor.parallel ~jobs:3));
  Alcotest.(check bool) "jobs <= 1 collapses to sequential" true
    (Executor.parallel ~jobs:1 = Executor.sequential);
  Alcotest.check_raises "task exception propagates" Exit (fun () ->
      ignore
        (Executor.map (Executor.parallel ~jobs:2) 4 (fun i ->
             if i = 2 then raise Exit else i)))

let test_executor_of_string () =
  let ok spec =
    match Executor.of_string spec with
    | Ok e -> e
    | Error m -> Alcotest.failf "of_string %S rejected: %s" spec m
  in
  Alcotest.(check bool) "sequential" true (ok "sequential" = Executor.sequential);
  Alcotest.(check bool) "seq alias" true (ok "seq" = Executor.sequential);
  Alcotest.(check bool) "case/space insensitive" true
    (ok "  Parallel:4 " = Executor.parallel ~jobs:4);
  Alcotest.(check bool) "bare parallel uses the recommended domain count" true
    (ok "parallel" = Executor.parallel ~jobs:(Domain.recommended_domain_count ()));
  (* Names round-trip through the parser. *)
  List.iter
    (fun spec ->
      let e = ok spec in
      Alcotest.(check string)
        (Printf.sprintf "%S round-trips" spec)
        (Executor.name e)
        (Executor.name (ok (Executor.name e))))
    [ "sequential"; "parallel:2"; "parallel:7" ];
  List.iter
    (fun spec ->
      match Executor.of_string spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "of_string %S must be rejected" spec)
    [ ""; "paralel"; "parallel:"; "parallel:0"; "parallel:x"; "seq:2"; "distributed";
      "distributed:2" ];
  (* A pool spawns jobs - 1 domains and OCaml caps domains per process, so
     the worker count is bounded; the rejection names the bound. *)
  Alcotest.(check bool) "parallel:64 parses" true
    (ok (Printf.sprintf "parallel:%d" Executor.max_jobs)
    = Executor.Parallel { jobs = Executor.max_jobs });
  match Executor.of_string "parallel:65" with
  | Ok _ -> Alcotest.fail "parallel:65 must be rejected"
  | Error m ->
      Alcotest.(check string) "error names the bound"
        "worker count 65 in \"parallel:65\" exceeds the bound of 64" m

let test_setup_traffic_is_external () =
  (* The trusted party's setup download lives on the dedicated external
     row: it equals the Setup phase bytes and never appears as node-sent
     bytes (no self-loops). *)
  let n = 4 and l = 8 in
  let g = ring_graph n in
  let p = token_program ~l ~iterations:1 ~noisy:false in
  let states = init_states (Prng.of_int 31) n l in
  let cfg = Engine.default_config grp ~k:1 ~degree_bound:2 in
  let r = Engine.run cfg p ~graph:g ~initial_states:states in
  let ext = Traffic.external_total r.Engine.traffic in
  Alcotest.(check bool) "setup bytes recorded" true (ext > 0);
  Alcotest.(check int) "external row = setup phase bytes"
    (List.assoc Engine.Setup r.Engine.phase_bytes) ext;
  (* The external row is receive-only: it never inflates anyone's sent
     bytes (a self-loop would count twice in by_node). *)
  let sent = List.init n (Traffic.sent_by r.Engine.traffic) in
  let recv = List.init n (Traffic.received_by r.Engine.traffic) in
  Alcotest.(check int) "sent + external = received totals"
    (List.fold_left ( + ) 0 recv)
    (List.fold_left ( + ) 0 sent + ext)

let test_engine_rejects_bad_inputs () =
  let g = ring_graph 4 in
  let p = token_program ~l:8 ~iterations:1 ~noisy:false in
  let cfg = Engine.default_config grp ~k:1 ~degree_bound:2 in
  Alcotest.check_raises "state count"
    (Invalid_argument "Engine.run: one initial state per vertex required") (fun () ->
      ignore (Engine.run cfg p ~graph:g ~initial_states:[| Bitvec.create 8 false |]));
  Alcotest.check_raises "degree bound"
    (Invalid_argument "Engine.run: vertex degree exceeds bound") (fun () ->
      let tight = { cfg with Engine.degree_bound = 1 } in
      ignore
        (Engine.run tight p ~graph:g
           ~initial_states:(Array.make 4 (Bitvec.create 8 false))))

let () =
  Alcotest.run "runtime"
    [
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "slots" `Quick test_graph_slots;
          Alcotest.test_case "rejects malformed" `Quick test_graph_rejects_malformed;
        ] );
      ( "vertex-program",
        [
          Alcotest.test_case "update circuit shapes" `Quick test_update_circuit_shapes;
          Alcotest.test_case "rejects bad fragment" `Quick
            test_update_circuit_rejects_bad_fragment;
          Alcotest.test_case "aggregate zero-noise sum" `Quick
            test_aggregate_circuit_zero_noise_is_sum;
          Alcotest.test_case "two-level = single" `Quick test_partial_and_combine_match_single;
        ] );
      ( "engine",
        [
          Alcotest.test_case "matches plaintext" `Quick test_engine_matches_plaintext_ring;
          Alcotest.test_case "token conservation" `Quick test_engine_token_conservation;
          Alcotest.test_case "noise applied" `Quick test_engine_noise_applied;
          Alcotest.test_case "two-level aggregation" `Quick test_engine_two_level_aggregation;
          Alcotest.test_case "phase accounting" `Quick test_engine_phase_accounting;
          Alcotest.test_case "mpc counters" `Quick test_engine_mpc_counters;
          Alcotest.test_case "rejects bad inputs" `Quick test_engine_rejects_bad_inputs;
        ] );
      ( "executor",
        [
          Alcotest.test_case "map basics" `Quick test_executor_map_basics;
          Alcotest.test_case "of_string specs" `Quick test_executor_of_string;
          Alcotest.test_case "sequential = parallel (ring)" `Quick test_executors_agree_ring;
          Alcotest.test_case "sequential = parallel (two-level, uneven)" `Quick
            test_executors_agree_two_level_uneven;
          Alcotest.test_case "setup traffic on external row" `Quick
            test_setup_traffic_is_external;
        ] );
    ]
