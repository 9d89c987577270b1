(* Offline/online split: GMW preprocessing.

   Gmw.preprocess sets up a session's OT pair sessions and computes ahead,
   on each party's PRG, the mask bytes its evaluations will draw. A
   preprocessed session must be observationally indistinguishable —
   output shares, traffic matrices, rounds/AND/OT counters, and the PRG
   streams afterwards — from one that drew inline, across scalar and
   bitsliced evaluation, both OT backends, a prefetch that runs short and
   batches that mix preprocessed and inline slots. The engine tests check
   that a preprocessed run reports byte-identically to an inline run, and
   that nothing outlives a run: an identical rerun preprocesses again. *)

open Dstress_mpc
module Bitvec = Dstress_util.Bitvec
module Prng = Dstress_util.Prng
module Prg = Dstress_crypto.Prg
module Group = Dstress_crypto.Group
module Ot_ext = Dstress_crypto.Ot_ext
module Circuit = Dstress_circuit.Circuit
module Builder = Dstress_circuit.Builder
module Word = Dstress_circuit.Word
module Obs = Dstress_obs.Obs
module Metrics = Dstress_obs.Obs.Metrics
module Reference = Dstress_risk.Reference
module En_program = Dstress_risk.En_program
open Dstress_runtime

let grp = Group.by_name "toy"

let adder_circuit bits =
  let b = Builder.create () in
  let x = Word.inputs b ~bits in
  let y = Word.inputs b ~bits in
  Builder.finish b ~outputs:(Word.add b x y)

let en_circuit () =
  let degree = 2 in
  let p = En_program.make ~l:8 ~degree ~iterations:1 () in
  Vertex_program.update_circuit p ~degree

let seed_of tag i = Printf.sprintf "triple:%s:%d" tag i

let make_sessions ?(mode = Ot_ext.Simulation) ~parties ~count tag =
  Array.init count (fun i -> Gmw.create_session ~mode grp ~parties ~seed:(seed_of tag i))

let make_inputs ~parties ~count tag (circuit : Circuit.t) =
  let dealer = Prg.of_string ("triple-inputs:" ^ tag) in
  Array.init count (fun _ ->
      Sharing.share dealer ~parties (Prg.bits dealer circuit.Circuit.num_inputs))

let check_sessions_agree tag i a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s: session %d traffic" tag i)
    true
    (Traffic.equal (Gmw.traffic a) (Gmw.traffic b));
  Alcotest.(check int) (Printf.sprintf "%s: session %d rounds" tag i) (Gmw.rounds a)
    (Gmw.rounds b);
  Alcotest.(check int)
    (Printf.sprintf "%s: session %d AND gates" tag i)
    (Gmw.and_gates_evaluated a)
    (Gmw.and_gates_evaluated b);
  Alcotest.(check int)
    (Printf.sprintf "%s: session %d OTs" tag i)
    (Gmw.ots_performed a) (Gmw.ots_performed b)

(* Scalar path: [batches] successive Gmw.eval calls on an inline session
   vs a clone preprocessed for [evals] of them. When [batches > evals]
   the prefetch runs short and the tail draws on demand; later
   evaluations agree only if the streams stayed exact. *)
let check_scalar_equiv ?(mode = Ot_ext.Simulation) ~parties ~evals ~batches circuit tag =
  let inline = (make_sessions ~mode ~parties ~count:1 tag).(0) in
  let online = (make_sessions ~mode ~parties ~count:1 tag).(0) in
  let plan = Plan.compile circuit in
  Gmw.preprocess online plan ~evals;
  for e = 0 to batches - 1 do
    let shares = (make_inputs ~parties ~count:1 (Printf.sprintf "%s:%d" tag e) circuit).(0) in
    let out_a = Gmw.eval inline plan ~input_shares:shares in
    let out_b = Gmw.eval online plan ~input_shares:shares in
    for p = 0 to parties - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "%s: eval %d party %d output" tag e p)
        true
        (Bitvec.equal out_a.(p) out_b.(p))
    done;
    check_sessions_agree tag e inline online;
    (* Reconstruction must also be plain-circuit correct. *)
    let cleartext = Sharing.reconstruct shares in
    let expected = Bitvec.of_bool_array (Circuit.eval circuit (Bitvec.to_bool_array cleartext)) in
    Alcotest.(check bool)
      (Printf.sprintf "%s: eval %d plaintext" tag e)
      true
      (Bitvec.equal expected (Sharing.reconstruct out_b))
  done

let test_scalar_simulation () =
  check_scalar_equiv ~parties:3 ~evals:3 ~batches:4 (adder_circuit 6) "scalar-sim";
  check_scalar_equiv ~parties:2 ~evals:2 ~batches:2 (en_circuit ()) "scalar-sim-en"

let test_scalar_crypto () =
  check_scalar_equiv ~mode:Ot_ext.Crypto ~parties:2 ~evals:2 ~batches:3 (adder_circuit 4)
    "scalar-crypto"

(* Bitsliced path via eval_many: [batches] rounds over [count] sessions.
   [preprocessed] picks which slots are preprocessed (a strict subset
   mixes preprocessed and inline slots within one word batch). *)
let check_sliced_equiv ?(mode = Ot_ext.Simulation) ~parties ~count ~evals ~batches
    ?(preprocessed = fun _ -> true) circuit tag =
  let inline = make_sessions ~mode ~parties ~count tag in
  let online = make_sessions ~mode ~parties ~count tag in
  let plan = Plan.compile circuit in
  Array.iteri (fun i s -> if preprocessed i then Gmw.preprocess s plan ~evals) online;
  for e = 0 to batches - 1 do
    let inputs = make_inputs ~parties ~count (Printf.sprintf "%s:%d" tag e) circuit in
    let out_a = Gmw.eval_many inline plan ~input_shares:inputs in
    let out_b = Gmw.eval_many online plan ~input_shares:inputs in
    for i = 0 to count - 1 do
      for p = 0 to parties - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%s: batch %d session %d party %d output" tag e i p)
          true
          (Bitvec.equal out_a.(i).(p) out_b.(i).(p))
      done;
      check_sessions_agree (Printf.sprintf "%s:batch%d" tag e) i inline.(i) online.(i)
    done
  done

let test_sliced_simulation () =
  check_sliced_equiv ~parties:3 ~count:5 ~evals:2 ~batches:3 (en_circuit ()) "sliced-sim-en";
  check_sliced_equiv ~parties:2 ~count:64 ~evals:1 ~batches:2 (adder_circuit 4)
    "sliced-sim-full-word"

let test_sliced_crypto () =
  check_sliced_equiv ~mode:Ot_ext.Crypto ~parties:2 ~count:2 ~evals:2 ~batches:2
    (adder_circuit 4) "sliced-crypto"

let test_mixed_slots () =
  check_sliced_equiv ~parties:3 ~count:4 ~evals:2 ~batches:3
    ~preprocessed:(fun i -> i mod 2 = 0)
    (adder_circuit 5) "mixed-slots"

(* ------------------------------------------------------------------ *)
(* Engine: preprocess on/off differentials                             *)
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
  let p =
    En_program.make ~epsilon:50.0 ~sensitivity:1 ~noise_max:2 ~l:12 ~degree:d ~iterations ()
  in
  let states = En_program.encode_instance small_economy ~graph ~l:12 ~degree:d ~scale:0.25 in
  (graph, d, p, states)

let run_engine ?(preprocess = false) ~executor ~seed (graph, d, p, states) =
  let cfg =
    { (Engine.default_config grp ~k:2 ~degree_bound:d ~seed) with
      Engine.executor; obs_level = Obs.Full; preprocess }
  in
  Engine.run cfg p ~graph ~initial_states:states

(* Everything observable in the tick domain must be byte-identical:
   output, traffic matrix, GMW counters, per-phase bytes and the Obs
   exports. Wall-clock fields are the only thing allowed to move. *)
let check_reports_equal label (a : Engine.report) (b : Engine.report) =
  Alcotest.(check int) (label ^ ": output") a.Engine.output b.Engine.output;
  Alcotest.(check bool) (label ^ ": traffic") true
    (Traffic.equal a.Engine.traffic b.Engine.traffic);
  Alcotest.(check int) (label ^ ": rounds") a.Engine.mpc_rounds b.Engine.mpc_rounds;
  Alcotest.(check int) (label ^ ": AND gates") a.Engine.mpc_and_gates b.Engine.mpc_and_gates;
  Alcotest.(check int) (label ^ ": OTs") a.Engine.mpc_ots b.Engine.mpc_ots;
  Alcotest.(check bool) (label ^ ": phase bytes") true
    (a.Engine.phase_bytes = b.Engine.phase_bytes);
  Alcotest.(check string) (label ^ ": trace bytes") (Obs.trace_json a.Engine.obs)
    (Obs.trace_json b.Engine.obs);
  Alcotest.(check string) (label ^ ": metrics bytes") (Obs.metrics_json a.Engine.obs)
    (Obs.metrics_json b.Engine.obs)

(* Every counter of a preprocessed run's wall-domain offline registry
   (the [preprocess.wall_s] gauge is wall time, so it is left out). *)
let offline_counters (r : Engine.report) =
  match r.Engine.offline_metrics with
  | None -> Alcotest.fail "preprocess run must expose offline metrics"
  | Some m ->
      List.filter_map
        (fun name ->
          match Metrics.find m name with
          | Some (Metrics.Counter c) -> Some (name, c)
          | _ -> None)
        (Metrics.names m)

let test_engine_preprocess () =
  let ((_, _, p, _) as fx) = en_fixture () in
  let seed = "triple-engine-pre" in
  let n = Reference.(small_economy.en_n) in
  let base = run_engine ~executor:Executor.sequential ~seed fx in
  Alcotest.(check bool) "inline run has no offline metrics" true
    (base.Engine.offline_metrics = None);
  let pre = run_engine ~preprocess:true ~executor:Executor.sequential ~seed fx in
  check_reports_equal "EN preprocess = inline" base pre;
  Alcotest.(check (list (pair string int)))
    "every block preprocessed, iterations + 1 evals each"
    [
      ("preprocess.evals", n * (p.Vertex_program.iterations + 1));
      ("preprocess.sessions", n);
    ]
    (offline_counters pre);
  (* A second identical run in the same process preprocesses its own
     sessions again and reports exactly what the first run reported. *)
  let again = run_engine ~preprocess:true ~executor:Executor.sequential ~seed fx in
  check_reports_equal "identical rerun" pre again;
  Alcotest.(check (list (pair string int)))
    "rerun's offline counters" (offline_counters pre) (offline_counters again)

let test_engine_seq_par () =
  let ((graph, _, _, _) as fx) = en_fixture () in
  let seed = "triple-engine-seqpar" in
  let base = run_engine ~executor:Executor.sequential ~seed fx in
  check_reports_equal "seq preprocessed" base
    (run_engine ~preprocess:true ~executor:Executor.sequential ~seed fx);
  check_reports_equal "seq inline rerun" base
    (run_engine ~executor:Executor.sequential ~seed fx);
  check_reports_equal "par one-vertex groups" base
    (run_engine ~preprocess:true ~executor:(Executor.parallel ~jobs:(Graph.n graph)) ~seed fx);
  check_reports_equal "par3 preprocessed" base
    (run_engine ~preprocess:true ~executor:(Executor.parallel ~jobs:3) ~seed fx)

let () =
  Alcotest.run "triple"
    [
      ( "engine",
        [
          Alcotest.test_case "preprocess differential" `Quick test_engine_preprocess;
          Alcotest.test_case "sequential and parallel differential" `Quick test_engine_seq_par;
        ] );
      ( "gmw-equivalence",
        [
          Alcotest.test_case "scalar simulation" `Quick test_scalar_simulation;
          Alcotest.test_case "scalar crypto" `Quick test_scalar_crypto;
          Alcotest.test_case "sliced simulation" `Quick test_sliced_simulation;
          Alcotest.test_case "sliced crypto" `Quick test_sliced_crypto;
          Alcotest.test_case "mixed slots" `Quick test_mixed_slots;
        ] );
    ]
