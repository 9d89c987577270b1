(* Sequential vs parallel executor on an end-to-end EN run: the outputs
   must be identical (the runtime's determinism is schedule-independent),
   and on a multi-core machine the compute-heavy phases should speed up
   with the domain count. Records the numbers behind the executor section
   of EXPERIMENTS.md. *)

open Bench_util
module Graph = Dstress_runtime.Graph
module Engine = Dstress_runtime.Engine
module Executor = Dstress_runtime.Executor
module En_program = Dstress_risk.En_program
module Topology = Dstress_graphgen.Topology
module Banking = Dstress_graphgen.Banking

let run ~quick () =
  header "Executor scaling: sequential vs domain pool (EN, N=20, k=2)";
  let n = if quick then 10 else 20 in
  let t = Prng.of_int 0xE8EC in
  let topo = Topology.erdos_renyi t ~n ~avg_degree:1.5 ~max_degree:3 in
  let inst = Banking.en_of_topology t topo () in
  let graph = En_program.graph_of_instance inst in
  let d = max 1 (Graph.max_degree graph) in
  let iterations = 2 in
  let p = En_program.make ~epsilon:1.0 ~sensitivity:1 ~noise_max:30 ~l:10 ~degree:d ~iterations () in
  let states = En_program.encode_instance inst ~graph ~l:10 ~degree:d ~scale:0.25 in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "N=%d, D=%d, k=2, %d iterations; %d core(s) recommended by the runtime\n\n"
    n d iterations cores;
  Printf.printf "%-14s %12s %12s %12s %10s\n" "executor" "wall time" "compute" "communicate"
    "output";
  let measure name executor =
    let cfg =
      { (Engine.default_config grp ~k:2 ~degree_bound:d ~seed:"exec-bench") with
        Engine.executor }
    in
    let r, seconds = time (fun () -> Engine.run cfg p ~graph ~initial_states:states) in
    (* The jobs count is machine-dependent, so it stays out of the row's
       identity; the output counter must match across executors anyway. *)
    emit
      (Bench_result.make_result
         ~wall:
           { Bench_result.median_s = seconds; min_s = seconds; p10_s = seconds;
             p90_s = seconds }
         ~counters:[ ("output", r.Engine.output) ]
         ~floats:
           [
             ("compute_s", List.assoc Engine.Computation r.Engine.phase_seconds);
             ("communicate_s", List.assoc Engine.Communication r.Engine.phase_seconds);
           ]
         name);
    Printf.printf "%-14s %10.2f s %10.2f s %10.2f s %10d\n%!" (Executor.name executor)
      seconds
      (List.assoc Engine.Computation r.Engine.phase_seconds)
      (List.assoc Engine.Communication r.Engine.phase_seconds)
      r.Engine.output;
    r
  in
  let seq = measure "sequential" Executor.sequential in
  let jobs = if cores > 1 then min cores 4 else 4 in
  let par = measure "parallel" (Executor.parallel ~jobs) in
  if seq.Engine.output <> par.Engine.output then
    failwith "executor_bench: parallel backend disagrees on the output";
  if seq.Engine.phase_bytes <> par.Engine.phase_bytes then
    failwith "executor_bench: parallel backend disagrees on phase traffic";
  let phase ph r = List.assoc ph r.Engine.phase_seconds in
  Printf.printf
    "\nidentical outputs and per-phase traffic; compute-phase speedup %.2fx on %d worker(s)\n"
    (phase Engine.Computation seq /. phase Engine.Computation par)
    jobs;
  if cores = 1 then
    Printf.printf "(single-core machine: domain-pool overhead, no speedup expected)\n"
