(* Design-choice ablations called out in DESIGN.md: aggregation topology
   and degree bucketing (§3.7). The transfer-protocol strawman ablation
   lives in Transfer_bench. *)

open Bench_util
module Engine = Dstress_runtime.Engine
module Graph = Dstress_runtime.Graph
module En_program = Dstress_risk.En_program
module Topology = Dstress_graphgen.Topology
module Banking = Dstress_graphgen.Banking
module Projection = Dstress_costmodel.Projection

let aggregation ~quick () =
  header "Ablation: single aggregation block vs two-level tree (§3.6)";
  let prng = Prng.of_int 0xAB1 in
  let n = if quick then 8 else 12 in
  let topo = Topology.erdos_renyi prng ~n ~avg_degree:2.0 ~max_degree:4 in
  let inst = Banking.en_of_topology prng topo () in
  let graph = En_program.graph_of_instance inst in
  let d = max 1 (Graph.max_degree graph) in
  let p = En_program.make ~l:12 ~degree:d ~iterations:1 () in
  let states = En_program.encode_instance inst ~graph ~l:12 ~degree:d ~scale:0.25 in
  Printf.printf "%-22s %12s %14s %10s\n" "aggregation" "agg time" "agg bytes" "output";
  List.iter
    (fun (name, label, agg) ->
      let cfg =
        { (Engine.default_config grp ~k:3 ~degree_bound:d ~seed:"ablation-agg") with
          Engine.aggregation = agg }
      in
      let r = Engine.run cfg p ~graph ~initial_states:states in
      let agg_s = List.assoc Engine.Aggregation r.Engine.phase_seconds in
      emit
        (Bench_result.make_result
           ~wall:
             { Bench_result.median_s = agg_s; min_s = agg_s; p10_s = agg_s;
               p90_s = agg_s }
           ~counters:
             [
               ("agg_bytes", List.assoc Engine.Aggregation r.Engine.phase_bytes);
               ("output", r.Engine.output);
             ]
           name);
      Printf.printf "%-22s %10.3f s %12d B %10d\n" label agg_s
        (List.assoc Engine.Aggregation r.Engine.phase_bytes)
        r.Engine.output)
    [
      ("single-block", "single block", Engine.Single_block);
      ("two-level", "two-level (fanout 4)", Engine.Two_level 4);
    ];
  Printf.printf
    "\nThe root block's circuit shrinks from N inputs to N/fanout, trading total\n\
     bytes for parallel leaf evaluations — the paper's fix for the aggregation\n\
     bottleneck at large N.\n"

let degree_bucketing ~quick:_ () =
  header "Ablation: degree bucketing vs a single conservative bound (§3.7)";
  (* A conservative D=100 bound forces every bank into the big circuit;
     two buckets let low-degree banks run a much smaller one. Closed-form
     AND counts make the trade-off concrete. *)
  let l = 12 in
  let small = Projection.update_ands ~l ~d:10 in
  let big = Projection.update_ands ~l ~d:100 in
  Printf.printf "update-circuit AND gates: D=10 -> %d, D=100 -> %d (x%.1f)\n" small big
    (float_of_int big /. float_of_int small);
  (* Suppose 90%% of banks have degree <= 10 (the two-tier structure). *)
  let blended = (0.9 *. float_of_int small) +. (0.1 *. float_of_int big) in
  record "buckets"
    ~counters:[ ("ands_d10", small); ("ands_d100", big) ]
    ~floats:[ ("blended_ands", blended) ];
  Printf.printf
    "with 90%% of banks in a D=10 bucket: mean %.0f ANDs per step, x%.1f cheaper than\n\
     the uniform D=100 bound — at the cost of revealing each bank's bucket.\n"
    blended
    (float_of_int big /. blended)

let twopc ~quick () =
  header "Garbled circuits (2PC) vs two-party GMW (§6 related work)";
  (* The paper argues full MPC is orders of magnitude slower than 2PC but
     2PC cannot give the same guarantees for >2 parties; this comparison
     makes the per-circuit cost difference concrete on our own backends. *)
  let d = if quick then 5 else 10 in
  let p = En_program.make ~l:12 ~degree:d ~iterations:1 () in
  let circuit = Dstress_runtime.Vertex_program.update_circuit p ~degree:d in
  let inputs_bits = circuit.Circuit.num_inputs in
  let prng = Prng.of_int 0x2BC in
  let inputs = Bitvec.random prng inputs_bits in
  let half = inputs_bits / 2 in
  (* Garbled 2PC. *)
  let meter = Dstress_crypto.Xfer.create () in
  let garble_result, garble_secs =
    time (fun () ->
        Dstress_crypto.Garble.execute grp meter circuit
          ~garbler_bits:half
          ~garbler_input:(Bitvec.sub inputs ~pos:0 ~len:half)
          ~evaluator_input:(Bitvec.sub inputs ~pos:half ~len:(inputs_bits - half))
          ~seed:"2pc")
  in
  (* Two-party GMW on the same circuit. *)
  let session = Gmw.create_session grp ~parties:2 ~seed:"2pc-gmw" in
  let shares = Gmw.share_input session inputs in
  let _, gmw_secs = time (fun () -> ignore (Gmw.eval session circuit ~input_shares:shares)) in
  let gmw_bytes = Traffic.total (Gmw.traffic session) in
  Printf.printf "EN step circuit (D=%d): %d AND gates, depth %d\n\n" d
    (Circuit.and_count circuit) (Circuit.and_depth circuit);
  let wall_of s =
    { Bench_result.median_s = s; min_s = s; p10_s = s; p90_s = s }
  in
  emit
    (Bench_result.make_result ~wall:(wall_of garble_secs)
       ~params:[ ("d", Json.Int d) ]
       ~counters:
         [
           ("bytes", Dstress_crypto.Xfer.total meter);
           ("and_gates", Circuit.and_count circuit);
         ]
       "garbled");
  emit
    (Bench_result.make_result ~wall:(wall_of gmw_secs)
       ~params:[ ("d", Json.Int d) ]
       ~counters:[ ("bytes", gmw_bytes); ("rounds", Gmw.rounds session) ]
       "gmw-2pc");
  Printf.printf "%-18s %12s %14s %10s\n" "backend" "time" "bytes" "rounds";
  Printf.printf "%-18s %9.3f s %12d B %10s\n" "garbled (Yao)" garble_secs
    (Dstress_crypto.Xfer.total meter) "O(1)";
  Printf.printf "%-18s %9.3f s %12d B %10d\n" "GMW (2 parties)" gmw_secs gmw_bytes
    (Gmw.rounds session);
  ignore garble_result;
  Printf.printf
    "\nGarbling ships 64 B per AND once and runs in constant rounds; GMW pays OT\n\
     traffic per AND but generalizes to k+1 parties — which is what DStress's\n\
     collusion bound requires (a 2PC backend cannot hide the graph from the two\n\
     parties themselves, cf. GraphSC).\n"
