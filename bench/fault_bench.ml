(* Fault-rate sweep: how the engine degrades as injected faults ramp up.

   For each fault rate the same EN fixture runs with a random fault plan
   (drops, delays, corruptions and forced decryption misses on edge
   transfers, plus a node handoff at the higher rates). The run uses a huge
   epsilon at sensitivity 1 (alpha = e^-50), so every noise coin folds to
   0 and the output must equal the plaintext reference exactly whenever
   every failure was recovered — which is what the "ok" column checks.
   The table reports the recovery machinery's cost: retries, the extra
   edge-privacy budget they consume, and the simulated backoff delay. *)

open Bench_util
module Engine = Dstress_runtime.Engine
module Graph = Dstress_runtime.Graph
module Fault = Dstress_faults.Fault
module En_program = Dstress_risk.En_program
module Topology = Dstress_graphgen.Topology
module Banking = Dstress_graphgen.Banking

let iterations = 2
let exact_epsilon = 50.0

let fixture ~quick =
  let prng = Prng.of_int 0xFA17 in
  let n = if quick then 8 else 14 in
  let topo = Topology.erdos_renyi prng ~n ~avg_degree:1.5 ~max_degree:3 in
  let inst = Banking.en_of_topology prng topo () in
  let inst =
    { inst with
      Dstress_risk.Reference.cash =
        Array.map (fun c -> c *. 0.3) inst.Dstress_risk.Reference.cash }
  in
  let graph = En_program.graph_of_instance inst in
  let d = max 1 (Graph.max_degree graph) in
  let p = En_program.make ~epsilon:exact_epsilon ~sensitivity:1 ~l:10 ~degree:d ~iterations () in
  let states = En_program.encode_instance inst ~graph ~l:10 ~degree:d ~scale:0.25 in
  (graph, d, p, states)

let run ~quick () =
  header "Fault sweep: recovery cost vs injected fault rate";
  let graph, d, p, states = fixture ~quick in
  let expected = Engine.run_plaintext p ~degree_bound:d ~graph ~initial_states:states in
  let rates = if quick then [ 0.0; 0.05 ] else [ 0.0; 0.02; 0.05; 0.10; 0.20 ] in
  Printf.printf
    "(N=%d, D<=%d, I=%d, k=3; rate applies to drop/corrupt/miss per (edge, round);\n\
    \ a handoff only at rate >= 0.1; plaintext reference = %d)\n\n"
    (Graph.n graph) d iterations expected;
  Printf.printf "%6s | %8s %7s %9s %11s | %9s %9s | %5s\n" "rate" "injected" "retries"
    "recovered" "unrecovered" "extra-eps" "backoff-s" "ok";
  List.iter
    (fun rate ->
      let plan =
        let transfer_rates =
          { Fault.no_faults with drop = rate; corrupt = rate /. 2.0; miss = rate; delay = rate }
        in
        let base =
          Fault.random_plan ~seed:(int_of_float (rate *. 1000.0)) ~rounds:(iterations + 1)
            ~nodes:(Graph.n graph) ~edges:(Graph.edges graph) transfer_rates
        in
        if rate >= 0.1 then
          base
          @ Fault.random_crashes ~seed:17 ~nodes:(Graph.n graph) ~rounds:(iterations + 1)
              ~count:1
        else base
      in
      let cfg =
        { (Engine.default_config grp ~k:3 ~degree_bound:d ~seed:"fault-sweep") with
          Engine.fault_plan = plan }
      in
      let r = Engine.run cfg p ~graph ~initial_states:states in
      let injected = List.fold_left (fun a (_, c) -> a + c) 0 r.Engine.faults_injected in
      let backoff =
        List.fold_left (fun a (_, s) -> a +. s) 0.0 r.Engine.recovery_seconds
      in
      let ok = r.Engine.unrecovered_failures = 0 && r.Engine.output = expected in
      record "sweep"
        ~params:[ ("rate_pct", Json.Int (int_of_float (rate *. 100.0))) ]
        ~counters:
          [
            ("injected", injected);
            ("retries", r.Engine.transfer_retries);
            ("recovered", r.Engine.recovered_failures);
            ("unrecovered", r.Engine.unrecovered_failures);
            ("output", r.Engine.output);
            ("ok", if ok then 1 else 0);
          ]
        ~floats:[ ("extra_eps", r.Engine.retry_epsilon); ("backoff_s", backoff) ];
      Printf.printf "%6.2f | %8d %7d %9d %11d | %9.4f %9.3f | %5s\n" rate injected
        r.Engine.transfer_retries r.Engine.recovered_failures r.Engine.unrecovered_failures
        r.Engine.retry_epsilon backoff
        (if ok then "yes" else "NO");
      if injected > 0 then begin
        Printf.printf "       | by kind:";
        List.iter
          (fun (k, c) -> if c > 0 then Printf.printf " %s=%d" (Fault.kind_name k) c)
          r.Engine.faults_injected;
        print_newline ()
      end)
    rates;
  Printf.printf
    "\n  -> every row should read ok=yes: retries + table escalation recover all\n\
    \     injected faults, at the cost of the listed extra edge-privacy budget.\n"
