(* Figure 6: scalability projection for the full U.S. banking system,
   calibrated from microbenchmarks (§5.5), with real-run validation
   points. Also the headline estimate at N = 1750, D = 100. *)

open Bench_util
module Projection = Dstress_costmodel.Projection
module Engine = Dstress_runtime.Engine
module Graph = Dstress_runtime.Graph
module En_program = Dstress_risk.En_program
module Topology = Dstress_graphgen.Topology
module Banking = Dstress_graphgen.Banking

let run ~quick () =
  header "Figure 6: projected end-to-end cost vs network size";
  let units = Projection.measure_units grp ~seed:"fig6" in
  (* Calibration and projections are machine-dependent by construction:
     informational floats, never gated counters. *)
  record "calibration"
    ~floats:
      [
        ("ot_us_per_and_pair", units.Projection.ot_seconds_per_and_per_pair *. 1e6);
        ("bytes_per_and_pair", units.Projection.mpc_bytes_per_and_per_pair);
        ("exp_us", units.Projection.exp_seconds *. 1e6);
      ];
  Printf.printf
    "calibration: %.2f us/AND/pair, %.1f B/AND/pair, %.1f us/exp (toy group, Crypto OT)\n\n"
    (units.Projection.ot_seconds_per_and_per_pair *. 1e6)
    units.Projection.mpc_bytes_per_and_per_pair
    (units.Projection.exp_seconds *. 1e6);
  let ns = if quick then [ 250; 1000; 1750 ] else [ 100; 250; 500; 750; 1000; 1250; 1500; 1750; 2000 ] in
  let ds = if quick then [ 10; 100 ] else [ 10; 40; 70; 100 ] in
  Printf.printf "%8s" "N";
  List.iter (fun d -> Printf.printf " | D=%-3d time  traffic" d) ds;
  Printf.printf "\n";
  List.iter
    (fun n ->
      Printf.printf "%8d" n;
      List.iter
        (fun d ->
          let p =
            { Projection.n; d; k = 19; l = 16; iterations = None; tree_fanout = 100 }
          in
          let pr = Projection.project units p in
          record "projection"
            ~params:[ ("n", Json.Int n); ("d", Json.Int d) ]
            ~floats:
              [
                ("total_s", pr.Projection.total_seconds);
                ("mb_per_node", pr.Projection.total_bytes_per_node /. 1048576.0);
              ];
          Printf.printf " | %7.1f min %6.0f MB" (pr.Projection.total_seconds /. 60.0)
            (pr.Projection.total_bytes_per_node /. 1048576.0))
        ds;
      Printf.printf "\n")
    ns;
  (* Headline: the paper's 4.8 h / 750 MB point. *)
  let headline = Projection.project units Projection.paper_scale in
  record "headline"
    ~floats:
      [
        ("total_hours", headline.Projection.total_seconds /. 3600.0);
        ("mb_per_node", headline.Projection.total_bytes_per_node /. 1048576.0);
      ];
  Printf.printf "\nheadline (N=1750, D=100, k=19):\n";
  Format.printf "%a@." Projection.pp headline;
  Printf.printf
    "(paper: ~4.8 h and ~750 MB on 2013 hardware with secp384r1 + SHA-based OT;\n\
    \ this build times the same SHA-based IKNP on a 64-bit group, so absolute\n\
    \ numbers differ — the N/D scaling shape is the reproduction target)\n";
  (* Validation: a real end-to-end run compared against the projection at
     the same (downscaled) parameters. *)
  if not quick then begin
    subheader "validation point (real run vs model)";
    let n = 20 and iterations = 3 and k = 11 in
    let prng = Prng.of_int 0xF16 in
    let topo = Topology.erdos_renyi prng ~n ~avg_degree:2.5 ~max_degree:5 in
    let inst = Banking.en_of_topology prng topo () in
    let graph = En_program.graph_of_instance inst in
    let d = max 1 (Graph.max_degree graph) in
    let p = En_program.make ~l:12 ~degree:d ~iterations () in
    let states = En_program.encode_instance inst ~graph ~l:12 ~degree:d ~scale:0.25 in
    let cfg = Engine.default_config grp ~k ~degree_bound:d ~seed:"fig6-val" in
    let report, wall = time (fun () -> Engine.run cfg p ~graph ~initial_states:states) in
    let params =
      { Projection.n; d; k; l = 12; iterations = Some iterations; tree_fanout = 100 }
    in
    let pr = Projection.project units params in
    (* The simulation serializes all N blocks; the projection models
       parallel nodes, so compare per-node quantities. *)
    let sim_per_node = wall /. float_of_int n *. float_of_int (k + 1) in
    emit
      (Bench_result.make_result
         ~params:[ ("n", Json.Int n); ("d", Json.Int d); ("k", Json.Int k) ]
         ~wall:
           { Bench_result.median_s = wall; min_s = wall; p10_s = wall; p90_s = wall }
         ~floats:
           [
             ("model_total_s", pr.Projection.total_seconds);
             ("real_mb_per_node",
              Dstress_mpc.Traffic.mean_per_node report.Engine.traffic /. 1048576.0);
           ]
         "validation");
    Printf.printf
      "real run: N=%d D=%d k=%d I=%d: wall %.1f s (~%.1f s node-serialized), %.1f MB/node\n"
      n d k iterations wall sim_per_node
      (Dstress_mpc.Traffic.mean_per_node report.Engine.traffic /. 1048576.0);
    Printf.printf "model:    %.1f s, %.1f MB/node\n"
      pr.Projection.total_seconds
      (pr.Projection.total_bytes_per_node /. 1048576.0)
  end
