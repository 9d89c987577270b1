(* Figure 5: end-to-end runs of Eisenberg–Noe and Elliott–Golub–Jackson,
   with per-phase time and per-node traffic, as a function of block size.

   The paper runs N = 100 banks with D = 10 and I = 7; all 100 EC2 nodes
   work in parallel. This testbed simulates every node on one core, so the
   default downscales the network (documented in EXPERIMENTS.md) while
   keeping the x-axis — the block size — at the paper's values. The shape
   targets are: total time growing roughly quadratically in the block
   size (k+1 memberships x linear per-block cost) and per-node traffic
   roughly linear. *)

open Bench_util
module Engine = Dstress_runtime.Engine
module Graph = Dstress_runtime.Graph
module Obs = Dstress_obs.Obs
module En_program = Dstress_risk.En_program
module Egj_program = Dstress_risk.Egj_program
module Topology = Dstress_graphgen.Topology
module Banking = Dstress_graphgen.Banking

let l = 10

let network ~quick =
  let prng = Prng.of_int 0xF15 in
  (* Full mode needs n > largest block size (a block of k+1 distinct nodes
     must exist). *)
  let n = if quick then 8 else 21 in
  let topo = Topology.erdos_renyi prng ~n ~avg_degree:2.0 ~max_degree:3 in
  (prng, topo)

let run_en ~iterations ~k topo prng =
  let inst = Banking.en_of_topology prng topo () in
  let inst =
    { inst with Dstress_risk.Reference.cash = Array.map (fun c -> c *. 0.3) inst.Dstress_risk.Reference.cash }
  in
  let graph = En_program.graph_of_instance inst in
  let d = max 1 (Graph.max_degree graph) in
  let p = En_program.make ~l ~degree:d ~iterations () in
  let states = En_program.encode_instance inst ~graph ~l ~degree:d ~scale:0.25 in
  let cfg =
    { (Engine.default_config grp ~k ~degree_bound:d ~seed:"fig5-en") with
      Engine.obs_level = Obs.Full }
  in
  Engine.run cfg p ~graph ~initial_states:states

let run_egj ~iterations ~k topo prng =
  let inst = Banking.egj_of_topology prng topo () in
  let inst =
    { inst with
      Dstress_risk.Reference.base_assets =
        Array.map (fun c -> c *. 0.5) inst.Dstress_risk.Reference.base_assets }
  in
  let graph = Egj_program.graph_of_instance inst in
  let d = max 1 (Graph.max_degree graph) in
  let p = Egj_program.make ~l:12 ~frac:5 ~degree:d ~iterations () in
  let states = Egj_program.encode_instance inst ~graph ~l:12 ~frac:5 ~degree:d ~scale:4.0 in
  let cfg =
    { (Engine.default_config grp ~k ~degree_bound:d ~seed:"fig5-egj") with
      Engine.obs_level = Obs.Full }
  in
  Engine.run cfg p ~graph ~initial_states:states

(* Wall-clock comes from the report (it is deliberately kept out of the
   deterministic registry); every byte figure is read back from the run's
   metrics registry, exercising the same counters `--metrics` exports. *)
let emit_run name ~block (r : Engine.report) =
  let m = Obs.metrics r.Engine.obs in
  let total = List.fold_left (fun a (_, s) -> a +. s) 0.0 r.Engine.phase_seconds in
  emit
    (Bench_result.make_result
       ~params:[ ("block", Json.Int block) ]
       ~wall:{ Bench_result.median_s = total; min_s = total; p10_s = total; p90_s = total }
       ~counters:(Bench_result.counters_of_metrics m)
       ~floats:
         (Bench_result.floats_of_metrics m
         @ List.map
             (fun (ph, s) -> ("phase." ^ Engine.phase_name ph ^ ".s", s))
             r.Engine.phase_seconds)
       name)

let print_run label ~block (r : Engine.report) =
  let m = Obs.metrics r.Engine.obs in
  let phase_s p = List.assoc p r.Engine.phase_seconds in
  let phase_mb p =
    float_of_int (Obs.Metrics.counter m ("phase." ^ Engine.phase_name p ^ ".bytes"))
    /. 1048576.0
  in
  Printf.printf
    "%-6s %8d | init %6.2f comp %8.2f comm %8.2f agg %7.2f s | total %8.2f s | %8.2f \
     MB/node (comp %.2f comm %.2f MB)\n"
    label block
    (phase_s Engine.Initialization) (phase_s Engine.Computation)
    (phase_s Engine.Communication) (phase_s Engine.Aggregation)
    (List.fold_left (fun a (_, s) -> a +. s) 0.0 r.Engine.phase_seconds)
    (Obs.Metrics.sum m "traffic.mean_node_bytes" /. 1048576.0)
    (phase_mb Engine.Computation) (phase_mb Engine.Communication)

let run ~quick () =
  header "Figure 5: end-to-end EN and EGJ runs vs block size";
  let prng, topo = network ~quick in
  let iterations = 2 in
  let blocks = if quick then [ 4; 8 ] else [ 8; 12; 16; 20 ] in
  Printf.printf
    "(downscaled: N=%d, D<=3, I=%d vs paper's N=100, D=10, I=7 — one core simulates all nodes)\n\n"
    topo.Topology.n iterations;
  Printf.printf "%-6s %8s | %-45s | %10s | %s\n" "model" "block" "phase seconds" "total"
    "traffic";
  let en_totals =
    List.map
      (fun block ->
        let r = run_en ~iterations ~k:(block - 1) topo prng in
        print_run "EN" ~block r;
        emit_run "en" ~block r;
        let t = List.fold_left (fun a (_, s) -> a +. s) 0.0 r.Engine.phase_seconds in
        (block, t))
      blocks
  in
  print_newline ();
  List.iter
    (fun block ->
      let r = run_egj ~iterations ~k:(block - 1) topo prng in
      print_run "EGJ" ~block r;
      emit_run "egj" ~block r)
    blocks;
  (match (en_totals, List.rev en_totals) with
  | (b0, t0) :: _, (b1, t1) :: _ ->
      let time_growth = t1 /. t0 in
      let block_growth = float_of_int b1 /. float_of_int b0 in
      Printf.printf
        "\n  -> EN total time grew x%.1f for a x%.1f block-size increase (paper: ~O(k^2), i.e. x%.1f)\n"
        time_growth block_growth (block_growth *. block_growth)
  | _ -> ())
