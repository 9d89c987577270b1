(* Offline/online split: correlated-randomness preprocessing.

   Gmw.generate_material pre-draws everything a GMW evaluation consumes
   (base-OT setup, per-pair Beaver mask bits, PRG snapshots); a session
   with the material attached must be observationally indistinguishable —
   output shares, traffic matrices, rounds/AND/OT counters, and the PRG
   streams afterwards — from one that generated inline, across scalar and
   bitsliced evaluation, both OT backends, exhaustion fallback and mixed
   consume/inline slices. The Triple.Cache tests pin the one-generation-
   per-key guarantee (including under domain hammering) and the 64-entry
   bound. The engine tests check that a preprocessed run, whether its
   material was generated or cached, reports byte-identically to an
   inline run. *)

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
   vs a clone holding material for [evals] of them — when
   [batches > evals] the tail exercises the exhaustion fallback, which
   must stay stream-exact thanks to the restored PRG snapshots. *)
let check_scalar_equiv ?(mode = Ot_ext.Simulation) ~parties ~evals ~batches circuit tag =
  let inline = (make_sessions ~mode ~parties ~count:1 tag).(0) in
  let online = (make_sessions ~mode ~parties ~count:1 tag).(0) in
  let plan = Plan.of_circuit circuit in
  let mat =
    Gmw.generate_material ~mode grp ~parties ~seed:(seed_of tag 0) ~evals plan
  in
  Alcotest.(check int) (tag ^ ": evals available") evals (Triple.evals_available mat);
  Gmw.attach_material online mat;
  Alcotest.(check int) (tag ^ ": remaining after attach") evals
    (Gmw.material_remaining online);
  for e = 0 to batches - 1 do
    let shares = (make_inputs ~parties ~count:1 (Printf.sprintf "%s:%d" tag e) circuit).(0) in
    let out_a = Gmw.eval inline circuit ~input_shares:shares in
    let out_b = Gmw.eval online circuit ~input_shares:shares in
    for p = 0 to parties - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "%s: eval %d party %d output" tag e p)
        true
        (Bitvec.equal out_a.(p) out_b.(p))
    done;
    check_sessions_agree tag e inline online;
    (* Reconstruction must also be plain-circuit correct. *)
    let cleartext = Sharing.reconstruct shares in
    let expected =
      Circuit.eval circuit (Array.of_list (Bitvec.to_bool_list cleartext))
      |> Array.to_list |> Bitvec.of_bool_list
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: eval %d plaintext" tag e)
      true
      (Bitvec.equal expected (Sharing.reconstruct out_b))
  done;
  Alcotest.(check int) (tag ^ ": remaining at end") (max 0 (evals - batches))
    (Gmw.material_remaining online)

let test_scalar_simulation () =
  check_scalar_equiv ~parties:3 ~evals:3 ~batches:4 (adder_circuit 6) "scalar-sim";
  check_scalar_equiv ~parties:2 ~evals:2 ~batches:2 (en_circuit ()) "scalar-sim-en"

let test_scalar_crypto () =
  check_scalar_equiv ~mode:Ot_ext.Crypto ~parties:2 ~evals:2 ~batches:3 (adder_circuit 4)
    "scalar-crypto"

(* Bitsliced path via eval_many: [batches] rounds over [count] sessions.
   [attach_to] picks which slots get material (a strict subset exercises
   mixed consume/inline slices within one word batch). *)
let check_sliced_equiv ?(mode = Ot_ext.Simulation) ~parties ~count ~evals ~batches
    ?(attach_to = fun _ -> true) circuit tag =
  let inline = make_sessions ~mode ~parties ~count tag in
  let online = make_sessions ~mode ~parties ~count tag in
  let plan = Plan.of_circuit circuit in
  Array.iteri
    (fun i s ->
      if attach_to i then
        Gmw.attach_material s
          (Gmw.generate_material ~mode grp ~parties ~seed:(seed_of tag i) ~evals plan))
    online;
  for e = 0 to batches - 1 do
    let inputs = make_inputs ~parties ~count (Printf.sprintf "%s:%d" tag e) circuit in
    let out_a = Gmw.eval_many inline circuit ~input_shares:inputs in
    let out_b = Gmw.eval_many online circuit ~input_shares:inputs in
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
    ~attach_to:(fun i -> i mod 2 = 0)
    (adder_circuit 5) "mixed-slots"

let test_digest_mismatch_drops_material () =
  let circuit_a = adder_circuit 4 and circuit_b = adder_circuit 5 in
  let s = (make_sessions ~parties:2 ~count:1 "mismatch").(0) in
  let mat =
    Gmw.generate_material ~mode:Ot_ext.Simulation grp ~parties:2 ~seed:(seed_of "mismatch" 0)
      ~evals:2 (Plan.of_circuit circuit_a)
  in
  Gmw.attach_material s mat;
  let shares = (make_inputs ~parties:2 ~count:1 "mismatch" circuit_b).(0) in
  let out = Gmw.eval s circuit_b ~input_shares:shares in
  Alcotest.(check int) "material dropped" 0 (Gmw.material_remaining s);
  let cleartext = Sharing.reconstruct shares in
  let expected =
    Circuit.eval circuit_b (Array.of_list (Bitvec.to_bool_list cleartext))
    |> Array.to_list |> Bitvec.of_bool_list
  in
  Alcotest.(check bool) "still correct" true (Bitvec.equal expected (Sharing.reconstruct out))

let test_attach_rejects () =
  let circuit = adder_circuit 4 in
  let plan = Plan.of_circuit circuit in
  let mk () = (make_sessions ~parties:2 ~count:1 "reject").(0) in
  let mat =
    Gmw.generate_material ~mode:Ot_ext.Simulation grp ~parties:2 ~seed:(seed_of "reject" 0)
      ~evals:1 plan
  in
  (* Used session. *)
  let used = mk () in
  let shares = (make_inputs ~parties:2 ~count:1 "reject" circuit).(0) in
  ignore (Gmw.eval used circuit ~input_shares:shares);
  Alcotest.check_raises "used session"
    (Invalid_argument "Gmw.attach_material: session has already evaluated") (fun () ->
      Gmw.attach_material used mat);
  (* Party mismatch. *)
  let three = Gmw.create_session ~mode:Ot_ext.Simulation grp ~parties:3 ~seed:"reject3" in
  Alcotest.check_raises "party mismatch"
    (Invalid_argument "Gmw.attach_material: party count mismatch") (fun () ->
      Gmw.attach_material three mat);
  (* Mode mismatch. *)
  let crypto = Gmw.create_session ~mode:Ot_ext.Crypto grp ~parties:2 ~seed:(seed_of "reject" 0) in
  Alcotest.check_raises "mode mismatch"
    (Invalid_argument "Gmw.attach_material: OT mode mismatch") (fun () ->
      Gmw.attach_material crypto mat)

(* ------------------------------------------------------------------ *)
(* Plan digest and memoization                                          *)
(* ------------------------------------------------------------------ *)

let test_plan_digest_and_memo () =
  let c = adder_circuit 6 in
  let p1 = Plan.of_circuit c in
  let before = Plan.compilations () in
  let p2 = Plan.of_circuit c in
  Alcotest.(check int) "memo hit compiles nothing" before (Plan.compilations ());
  Alcotest.(check bool) "memo returns same plan" true (p1 == p2);
  Alcotest.(check string) "digest stable" (Plan.digest p1) (Plan.digest p2);
  (* Structurally equal circuit, different physical identity: same digest
     (that is the point — a later run rebuilds its circuits and must
     still find the material an earlier run cached). *)
  let c' = adder_circuit 6 in
  Alcotest.(check bool) "distinct objects" true (c != c');
  Alcotest.(check string) "structural digest" (Plan.digest p1) (Plan.digest (Plan.compile c'));
  Alcotest.(check bool) "different circuit, different digest" true
    (Plan.digest p1 <> Plan.digest (Plan.compile (adder_circuit 7)))

(* ------------------------------------------------------------------ *)
(* Cache: hits, bound, concurrency                                    *)
(* ------------------------------------------------------------------ *)

let gen_for ~parties ~seed ~evals plan ~evals:_ =
  Gmw.generate_material ~mode:Ot_ext.Simulation grp ~parties ~seed ~evals plan

let request cache plan ~parties ~seed ~evals =
  Triple.Cache.find_or_generate cache ~digest:(Plan.digest plan) ~parties ~seed
    ~mode:Ot_ext.Simulation ~evals
    ~generate:(gen_for ~parties ~seed ~evals plan)

let test_cache_memory () =
  let cache = Triple.Cache.create () in
  let plan = Plan.of_circuit (adder_circuit 4) in
  let m1 = request cache plan ~parties:2 ~seed:"cache-mem" ~evals:2 in
  let m2 = request cache plan ~parties:2 ~seed:"cache-mem" ~evals:2 in
  Alcotest.(check bool) "hit returns same material" true (m1 == m2);
  Alcotest.(check int) "one generation" 1 (Triple.Cache.generations cache);
  Alcotest.(check int) "one hit" 1 (Triple.Cache.hits cache);
  (* Bigger request on the same key regenerates. *)
  let m3 = request cache plan ~parties:2 ~seed:"cache-mem" ~evals:5 in
  Alcotest.(check int) "regenerated for more evals" 2 (Triple.Cache.generations cache);
  Alcotest.(check int) "larger material" 5 (Triple.evals_available m3);
  (* Different key (other seed) is a fresh generation. *)
  ignore (request cache plan ~parties:2 ~seed:"cache-mem2" ~evals:2);
  Alcotest.(check int) "per-key generation" 3 (Triple.Cache.generations cache);
  Triple.Cache.clear cache;
  Alcotest.(check int) "cleared" 0 (Triple.Cache.generations cache)

(* Memory keeps 64 materials: a 65th key evicts the oldest, and only
   the oldest. *)
let test_cache_bounded () =
  let cache = Triple.Cache.create () in
  let plan = Plan.of_circuit (adder_circuit 4) in
  let req i =
    ignore (request cache plan ~parties:2 ~seed:(Printf.sprintf "bound-%d" i) ~evals:1)
  in
  for i = 1 to 65 do
    req i
  done;
  Alcotest.(check int) "65 distinct keys generate" 65 (Triple.Cache.generations cache);
  req 1;
  Alcotest.(check int) "oldest key was evicted" 66 (Triple.Cache.generations cache);
  req 65;
  Alcotest.(check int) "newest key still hits" 66 (Triple.Cache.generations cache);
  Alcotest.(check int) "one hit" 1 (Triple.Cache.hits cache)

(* One key hammered from several domains must generate exactly once;
   distinct keys generate once each. *)
let test_cache_hammer () =
  let cache = Triple.Cache.create () in
  let plan = Plan.of_circuit (adder_circuit 5) in
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 9 do
              let seed = Printf.sprintf "hammer-%d" (i mod 3) in
              ignore (request cache plan ~parties:2 ~seed ~evals:1);
              ignore d
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "one generation per key" 3 (Triple.Cache.generations cache);
  Alcotest.(check int) "everything else hit" (4 * 10 - 3) (Triple.Cache.hits cache)

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
    (Obs.metrics_json b.Engine.obs);
  Alcotest.(check string) (label ^ ": metrics csv") (Obs.metrics_csv a.Engine.obs)
    (Obs.metrics_csv b.Engine.obs)

let offline_counter (r : Engine.report) name =
  match r.Engine.offline_metrics with
  | Some m -> Metrics.counter m name
  | None -> Alcotest.fail "preprocess run must expose offline metrics"

let test_engine_preprocess () =
  let fx = en_fixture () in
  let seed = "triple-engine-pre" in
  let base = run_engine ~executor:Executor.sequential ~seed fx in
  Alcotest.(check bool) "inline run has no offline metrics" true
    (base.Engine.offline_metrics = None);
  Triple.Cache.clear Triple.Cache.shared;
  let g0 = Triple.Cache.generations Triple.Cache.shared in
  let pre = run_engine ~preprocess:true ~executor:Executor.sequential ~seed fx in
  check_reports_equal "EN preprocess = inline" base pre;
  (* One generation per block key (one key per vertex block). *)
  Alcotest.(check int) "one generation per block key" Reference.(small_economy.en_n)
    (Triple.Cache.generations Triple.Cache.shared - g0);
  Alcotest.(check int) "sessions preprocessed" Reference.(small_economy.en_n)
    (offline_counter pre "preprocess.sessions");
  Alcotest.(check int) "generations counted" Reference.(small_economy.en_n)
    (offline_counter pre "preprocess.cache.generations");
  Alcotest.(check bool) "evals attached" true
    (offline_counter pre "preprocess.evals" >= Reference.(small_economy.en_n));
  (* A second identical run is served entirely from the shared cache. *)
  let again = run_engine ~preprocess:true ~executor:Executor.sequential ~seed fx in
  check_reports_equal "cached rerun" base again;
  Alcotest.(check int) "no regeneration on rerun" Reference.(small_economy.en_n)
    (Triple.Cache.generations Triple.Cache.shared - g0);
  Alcotest.(check int) "rerun served from cache" Reference.(small_economy.en_n)
    (offline_counter again "preprocess.cache.hits")

let test_engine_seq_par () =
  let ((graph, _, _, _) as fx) = en_fixture () in
  let seed = "triple-engine-seqpar" in
  let base = run_engine ~executor:Executor.sequential ~seed fx in
  (* Preprocessing must not change how many plans get compiled: the
     offline phase's Plan.of_circuit is served by the same memo the
     online phase uses. *)
  let c0 = Plan.compilations () in
  let pre = run_engine ~preprocess:true ~executor:Executor.sequential ~seed fx in
  let d_pre = Plan.compilations () - c0 in
  let c1 = Plan.compilations () in
  let inline_again = run_engine ~executor:Executor.sequential ~seed fx in
  let d_inline = Plan.compilations () - c1 in
  check_reports_equal "seq preprocessed" base pre;
  check_reports_equal "seq inline rerun" base inline_again;
  Alcotest.(check int) "preprocess adds no compilations" d_inline d_pre;
  let singles =
    run_engine ~preprocess:true ~executor:(Executor.parallel ~jobs:(Graph.n graph)) ~seed fx
  in
  check_reports_equal "par one-vertex groups" base singles;
  (* One material serves every grouping: the one-vertex-group run reuses
     what the sequential run generated. *)
  Alcotest.(check int) "one-vertex groups reuse the sequential run's material" 0
    (offline_counter singles "preprocess.cache.generations");
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
          Alcotest.test_case "digest mismatch" `Quick test_digest_mismatch_drops_material;
          Alcotest.test_case "attach rejects" `Quick test_attach_rejects;
        ] );
      ( "plan",
        [ Alcotest.test_case "digest and memoization" `Quick test_plan_digest_and_memo ] );
      ( "cache",
        [
          Alcotest.test_case "memory" `Quick test_cache_memory;
          Alcotest.test_case "memory is bounded" `Quick test_cache_bounded;
          Alcotest.test_case "domain hammering" `Quick test_cache_hammer;
        ] );
    ]
