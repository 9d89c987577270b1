(* Bitsliced GMW: one evaluation per instance (Gmw.eval, the one-slot
   case of the evaluator; the "scalar" row) vs 64-wide int64 packing
   (Gmw.eval_many) on the paper's EN update circuit. Every vertex of a
   block runs the same circuit per computation step, so the engine packs
   up to 64 of them into one sliced evaluation; this bench isolates that
   kernel and checks the contract — byte-identical output shares, traffic
   matrices and round/AND/OT counters — while measuring the speedup.
   Records the numbers behind the gmw-slice section of EXPERIMENTS.md. *)

open Bench_util
module Sharing = Dstress_mpc.Sharing

let run ~quick () =
  let count = if quick then 16 else 64 in
  let block = 8 in
  let l = 10 and degree = 2 in
  header
    (Printf.sprintf "Bitsliced GMW: %d EN-step instances, block %d (Simulation OT)" count
       block);
  let p = Dstress_risk.En_program.make ~l ~degree ~iterations:1 () in
  let circuit = Vertex_program.update_circuit p ~degree in
  let stats = Circuit.stats circuit in
  Printf.printf "update circuit: %d gates, %d ANDs, AND depth %d, %d parties\n\n"
    stats.Circuit.gates stats.Circuit.ands stats.Circuit.depth block;
  let sessions () =
    Array.init count (fun i ->
        Gmw.create_session ~mode:Ot_ext.Simulation grp ~parties:block
          ~seed:(Printf.sprintf "slice-bench:%d" i))
  in
  let dealer = Prg.of_string "slice-bench-inputs" in
  let inputs =
    Array.init count (fun _ ->
        Sharing.share dealer ~parties:block (Prg.bits dealer circuit.Circuit.num_inputs))
  in
  let scalar_sessions = sessions () and sliced_sessions = sessions () in
  let plan = Plan.compile circuit in
  let scalar, scalar_s =
    time (fun () ->
        Array.mapi (fun i s -> Gmw.eval s plan ~input_shares:inputs.(i)) scalar_sessions)
  in
  let sliced, sliced_s = time (fun () -> Gmw.eval_many sliced_sessions plan ~input_shares:inputs) in
  (* The sliced path must be observably indistinguishable per instance. *)
  for i = 0 to count - 1 do
    for party = 0 to block - 1 do
      if not (Bitvec.equal scalar.(i).(party) sliced.(i).(party)) then
        failwith "slice_bench: output shares differ"
    done;
    let a = scalar_sessions.(i) and b = sliced_sessions.(i) in
    if not (Traffic.equal (Gmw.traffic a) (Gmw.traffic b)) then
      failwith "slice_bench: traffic matrices differ";
    if
      Gmw.rounds a <> Gmw.rounds b
      || Gmw.and_gates_evaluated a <> Gmw.and_gates_evaluated b
      || Gmw.ots_performed a <> Gmw.ots_performed b
    then failwith "slice_bench: round/AND/OT counters differ"
  done;
  let emit_path name seconds session =
    emit
      (Bench_result.make_result
         ~params:[ ("instances", Json.Int count); ("block", Json.Int block) ]
         ~wall:
           { Bench_result.median_s = seconds; min_s = seconds; p10_s = seconds;
             p90_s = seconds }
         ~throughput:("instances", float_of_int count /. seconds)
         ~counters:
           [
             ("and_gates", Gmw.and_gates_evaluated session);
             ("ots", Gmw.ots_performed session);
             ("rounds", Gmw.rounds session);
             ("traffic.total_bytes", Traffic.total (Gmw.traffic session));
           ]
         name)
  in
  emit_path "scalar" scalar_s scalar_sessions.(0);
  emit_path "sliced" sliced_s sliced_sessions.(0);
  Printf.printf "%-10s %12s %16s\n" "path" "wall time" "per instance";
  Printf.printf "%-10s %10.3f s %13.2f ms\n" "scalar" scalar_s
    (1000.0 *. scalar_s /. float_of_int count);
  Printf.printf "%-10s %10.3f s %13.2f ms\n" "sliced" sliced_s
    (1000.0 *. sliced_s /. float_of_int count);
  let speedup = scalar_s /. sliced_s in
  Printf.printf
    "\nidentical outputs, traffic matrices and counters across %d instances; speedup %.2fx\n"
    count speedup
