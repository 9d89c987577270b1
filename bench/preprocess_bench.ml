(* Offline/online split: GMW preprocessing (Gmw.preprocess: OT setup and
   the mask keystream computed ahead) vs the single-phase inline path, on
   the paper's EN and EGJ update circuits, both OT backends, one-slot
   (w1, one Gmw.eval per instance) and 64-wide bitsliced evaluation.

   Each configuration emits three rows:

     <tag>-combined   the single-phase path (OT setup, mask draws, OT
                      extension and evaluation, all on the critical path)
     <tag>-offline    preprocessing the sessions (what moves off the
                      critical path: base-OT setup and the SHA-CTR blocks
                      the mask draws read)
     <tag>-online     evaluating the preprocessed sessions: the latency
                      a clearing query actually pays once preprocessing
                      has run. In Crypto mode this still runs every IKNP
                      extension.

   The combined and online paths must be observationally identical —
   output shares, traffic matrices, round/AND/OT counters — which this
   bench enforces before reporting (the counters also land in the rows,
   so bench_diff gates them exactly against the committed baselines).
   The online row carries the combined/online speedup as a float. The
   EN / simulation / slice-64 point is the headline number: in
   Simulation mode the mask draws are most of an evaluation, so the
   target there is >= 3x (checked in EXPERIMENTS.md and warned about
   below). Crypto online time is dominated by the OT extension, which
   preprocessing does not move. *)

open Bench_util
module Sharing = Dstress_mpc.Sharing
module Plan = Dstress_mpc.Plan
module Egj_program = Dstress_risk.Egj_program
module En_program = Dstress_risk.En_program

let circuit_for ~quick = function
  | `En ->
      let l = if quick then 8 else 10 in
      let p = En_program.make ~l ~degree:2 ~iterations:1 () in
      Vertex_program.update_circuit p ~degree:2
  | `Egj ->
      let l = if quick then 8 else 12 in
      let p = Egj_program.make ~l ~frac:3 ~degree:2 ~iterations:1 () in
      Vertex_program.update_circuit p ~degree:2

let mode_tag = function Ot_ext.Simulation -> "sim" | Ot_ext.Crypto -> "crypto"
let model_tag = function `En -> "en" | `Egj -> "egj"

(* One configuration: [count] independent sessions, [batches] successive
   evaluations each (all of them preprocessed). Returns the
   combined/online speedup. *)
let run_config ~quick ~model ~mode ~width =
  let parties = match mode with Ot_ext.Crypto -> 2 | Ot_ext.Simulation -> 3 in
  let count =
    match (mode, width) with
    | _, 1 -> if quick then 4 else 8
    | Ot_ext.Crypto, _ -> if quick then 2 else 4
    | Ot_ext.Simulation, _ -> if quick then 16 else 64
  in
  let batches = 2 in
  let circuit = circuit_for ~quick model in
  let plan = Plan.compile circuit in
  let tag = Printf.sprintf "%s-%s-w%d" (model_tag model) (mode_tag mode) width in
  let seed i = Printf.sprintf "preprocess-bench:%s:%d" tag i in
  let sessions () =
    Array.init count (fun i -> Gmw.create_session ~mode grp ~parties ~seed:(seed i))
  in
  let dealer = Prg.of_string ("preprocess-bench-inputs:" ^ tag) in
  let inputs =
    Array.init batches (fun _ ->
        Array.init count (fun _ ->
            Sharing.share dealer ~parties (Prg.bits dealer circuit.Circuit.num_inputs)))
  in
  let eval_batch ss batch =
    if width = 1 then Array.mapi (fun i s -> Gmw.eval s plan ~input_shares:batch.(i)) ss
    else Gmw.eval_many ss plan ~input_shares:batch
  in
  let combined_sessions = sessions () in
  let combined_out, combined_s =
    time (fun () -> Array.map (fun batch -> eval_batch combined_sessions batch) inputs)
  in
  let online_sessions = sessions () in
  let (), offline_s =
    time (fun () -> Array.iter (fun s -> Gmw.preprocess s plan ~evals:batches) online_sessions)
  in
  let online_out, online_s =
    time (fun () -> Array.map (fun batch -> eval_batch online_sessions batch) inputs)
  in
  (* The online path must be observationally indistinguishable. *)
  for b = 0 to batches - 1 do
    for i = 0 to count - 1 do
      for party = 0 to parties - 1 do
        if not (Bitvec.equal combined_out.(b).(i).(party) online_out.(b).(i).(party)) then
          failwith (tag ^ ": output shares differ between combined and online paths")
      done
    done
  done;
  for i = 0 to count - 1 do
    let a = combined_sessions.(i) and b = online_sessions.(i) in
    if not (Traffic.equal (Gmw.traffic a) (Gmw.traffic b)) then
      failwith (tag ^ ": traffic matrices differ between combined and online paths");
    if
      Gmw.rounds a <> Gmw.rounds b
      || Gmw.and_gates_evaluated a <> Gmw.and_gates_evaluated b
      || Gmw.ots_performed a <> Gmw.ots_performed b
    then failwith (tag ^ ": round/AND/OT counters differ")
  done;
  let speedup = combined_s /. online_s in
  let params =
    [
      ("model", Json.Str (model_tag model));
      ("ot", Json.Str (mode_tag mode));
      ("width", Json.Int width);
      ("instances", Json.Int count);
      ("batches", Json.Int batches);
      ("parties", Json.Int parties);
    ]
  in
  let counters_of session =
    [
      ("and_gates", Gmw.and_gates_evaluated session);
      ("ots", Gmw.ots_performed session);
      ("rounds", Gmw.rounds session);
      ("traffic.total_bytes", Traffic.total (Gmw.traffic session));
    ]
  in
  let wall seconds =
    { Bench_result.median_s = seconds; min_s = seconds; p10_s = seconds; p90_s = seconds }
  in
  emit
    (Bench_result.make_result ~params ~wall:(wall combined_s)
       ~counters:(counters_of combined_sessions.(0))
       (tag ^ "-combined"));
  emit
    (Bench_result.make_result ~params ~wall:(wall offline_s)
       ~counters:[ ("evals_generated", count * batches) ]
       (tag ^ "-offline"));
  emit
    (Bench_result.make_result ~params ~wall:(wall online_s)
       ~counters:(counters_of online_sessions.(0))
       ~floats:[ ("speedup_vs_combined", speedup) ]
       (tag ^ "-online"));
  Printf.printf "%-14s %4d inst  %9.3f s  %9.3f s  %9.3f s  %6.2fx\n" tag count combined_s
    offline_s online_s speedup;
  (tag, speedup)

let run ~quick () =
  header "Offline/online split: preprocessing vs single-phase GMW";
  Printf.printf "%-14s %9s  %11s  %11s  %11s  %7s\n" "config" "" "combined" "offline"
    "online" "speedup";
  let speedups =
    List.concat_map
      (fun model ->
        List.concat_map
          (fun mode ->
            List.map (fun width -> run_config ~quick ~model ~mode ~width) [ 1; 64 ])
          [ Ot_ext.Simulation; Ot_ext.Crypto ])
      [ `En; `Egj ]
  in
  (match List.assoc_opt "en-sim-w64" speedups with
  | Some s when s < 3.0 ->
      Printf.printf
        "\n(en-sim-w64 online speedup %.2fx below the 3x target — expected only under \
         --quick or heavy load)\n"
        s
  | Some s -> Printf.printf "\nen-sim-w64 online path %.2fx faster than combined (target 3x)\n" s
  | None -> ())
