(* Sliced-vs-one-slot GMW equivalence.

   Gmw.eval_many packs up to 64 protocol instances into int64 wire words;
   its contract is that every per-instance observable — output shares,
   traffic matrix, rounds/AND/OT counters, PRG state — is bit-identical to
   running Gmw.eval (the same evaluator with one slot) per instance. These
   tests pin that contract on random circuits, the paper's EN and EGJ
   update circuits, the aggregation circuit, both OT backends, and through
   the engine (one-vertex groups vs wider ones) under both executors. The
   golden fixture pins the one-slot observables themselves. *)

open Dstress_mpc
module Bitvec = Dstress_util.Bitvec
module Prng = Dstress_util.Prng
module Prg = Dstress_crypto.Prg
module Group = Dstress_crypto.Group
module Ot_ext = Dstress_crypto.Ot_ext
module Circuit = Dstress_circuit.Circuit
module Builder = Dstress_circuit.Builder
module Word = Dstress_circuit.Word
module Fault = Dstress_faults.Fault
module En_program = Dstress_risk.En_program
module Egj_program = Dstress_risk.Egj_program
open Dstress_runtime

let grp = Group.by_name "toy"

(* ------------------------------------------------------------------ *)
(* Gmw.eval_many vs per-instance Gmw.eval                              *)
(* ------------------------------------------------------------------ *)

(* Two session arrays built from the same seeds are clones: running one
   slot per call on one and 64-wide slices on the other compares the two
   groupings on identical protocol states. *)
let make_sessions ?(mode = Ot_ext.Simulation) ~parties ~count tag =
  Array.init count (fun i ->
      Gmw.create_session ~mode grp ~parties ~seed:(Printf.sprintf "slice:%s:%d" tag i))

let make_inputs ~parties ~count tag (circuit : Circuit.t) =
  let dealer = Prg.of_string ("slice-inputs:" ^ tag) in
  Array.init count (fun _ ->
      Sharing.share dealer ~parties (Prg.bits dealer circuit.Circuit.num_inputs))

(* Outputs are correct when the XOR of the output shares is the
   plaintext circuit on the XOR of the input shares. *)
let check_reconstructs what circuit input_shares outputs =
  let cleartext = Sharing.reconstruct input_shares in
  let expected = Bitvec.of_bool_array (Circuit.eval circuit (Bitvec.to_bool_array cleartext)) in
  Alcotest.(check bool) (what ^ " matches plaintext") true
    (Bitvec.equal expected (Sharing.reconstruct outputs))

let check_equiv ?mode ~parties ~count circuit tag =
  let a = make_sessions ?mode ~parties ~count tag in
  let b = make_sessions ?mode ~parties ~count tag in
  let inputs = make_inputs ~parties ~count tag circuit in
  let plan = Plan.compile circuit in
  let scalar = Array.mapi (fun i s -> Gmw.eval s plan ~input_shares:inputs.(i)) a in
  let sliced = Gmw.eval_many b plan ~input_shares:inputs in
  Alcotest.(check int) (tag ^ ": result count") count (Array.length sliced);
  for i = 0 to count - 1 do
    for p = 0 to parties - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "%s: instance %d party %d output" tag i p)
        true
        (Bitvec.equal scalar.(i).(p) sliced.(i).(p))
    done;
    Alcotest.(check bool)
      (Printf.sprintf "%s: instance %d traffic" tag i)
      true
      (Traffic.equal (Gmw.traffic a.(i)) (Gmw.traffic b.(i)));
    Alcotest.(check int)
      (Printf.sprintf "%s: instance %d rounds" tag i)
      (Gmw.rounds a.(i)) (Gmw.rounds b.(i));
    Alcotest.(check int)
      (Printf.sprintf "%s: instance %d AND gates" tag i)
      (Gmw.and_gates_evaluated a.(i))
      (Gmw.and_gates_evaluated b.(i));
    Alcotest.(check int)
      (Printf.sprintf "%s: instance %d OTs" tag i)
      (Gmw.ots_performed a.(i)) (Gmw.ots_performed b.(i));
    (* And both must be *correct*: reconstruction matches plaintext. *)
    check_reconstructs (Printf.sprintf "%s: instance %d" tag i) circuit inputs.(i) sliced.(i)
  done

let random_circuit prng ~num_inputs ~gates =
  let rev = ref [] in
  let wires = ref 0 in
  let push g =
    rev := g :: !rev;
    incr wires
  in
  for k = 0 to num_inputs - 1 do
    push (Circuit.Input k)
  done;
  for _ = 1 to gates do
    let w () = Prng.int prng !wires in
    match Prng.int prng 10 with
    | 0 -> push (Circuit.Const (Prng.bool prng))
    | 1 | 2 -> push (Circuit.Not (w ()))
    | 3 | 4 | 5 -> push (Circuit.Xor (w (), w ()))
    | _ -> push (Circuit.And (w (), w ()))
  done;
  let n = !wires in
  let outputs = Array.init (min 16 n) (fun i -> n - 1 - i) in
  Circuit.make ~gates:(Array.of_list (List.rev !rev)) ~num_inputs ~outputs

let test_random_circuits () =
  let prng = Prng.of_int 424242 in
  for case = 0 to 4 do
    let c = random_circuit prng ~num_inputs:(4 + Prng.int prng 8) ~gates:(30 + Prng.int prng 40) in
    let count = Prng.pick prng [| 1; 2; 5; 11 |] in
    let parties = 2 + Prng.int prng 3 in
    check_equiv ~parties ~count c (Printf.sprintf "random-%d" case)
  done

let adder_circuit bits =
  let b = Builder.create () in
  let x = Word.inputs b ~bits in
  let y = Word.inputs b ~bits in
  Builder.finish b ~outputs:(Word.add b x y)

let test_full_and_overfull_slices () =
  (* 64 instances fill a word exactly; 70 forces a second chunk. *)
  let c = adder_circuit 4 in
  check_equiv ~parties:2 ~count:64 c "full-word";
  check_equiv ~parties:2 ~count:70 c "chunked"

let en_update_circuit () =
  let degree = 2 in
  Vertex_program.update_circuit (En_program.make ~l:8 ~degree ~iterations:1 ()) ~degree

let en_aggregation_circuit () =
  Vertex_program.aggregate_circuit (En_program.make ~l:8 ~degree:2 ~iterations:1 ()) ~count:3

let test_en_step () = check_equiv ~parties:3 ~count:5 (en_update_circuit ()) "en-step"

let test_egj_step () =
  let l = 8 and frac = 3 and degree = 2 in
  let p = Egj_program.make ~l ~frac ~degree ~iterations:1 () in
  let c = Vertex_program.update_circuit p ~degree in
  check_equiv ~parties:3 ~count:4 c "egj-step"

let test_aggregation_circuit () =
  check_equiv ~parties:4 ~count:3 (en_aggregation_circuit ()) "aggregation"

let test_crypto_mode () =
  (* The Crypto backend takes the faithful lane-by-lane path through
     extend_bits; equivalence must hold there too. *)
  let c = adder_circuit 4 in
  check_equiv ~mode:Ot_ext.Crypto ~parties:2 ~count:2 c "crypto"

(* The evaluator keeps wire and mask words unboxed, so what a one-slot
   evaluation still allocates on the minor heap is the SHA-CTR mask draws
   and the output shares, not per-gate boxes. Measured on the EN
   aggregation circuit when its noise ladder made it 19,732 ANDs (3
   parties, x86-64, OCaml 5.1): 136.0 minor words per AND gate with boxed
   int64 array wires and a Simulation OT carrier batch per pair and
   level; 20.7 with unboxed words and the ideal OT computed inline. The
   bitwise noise sampler cut that circuit to 597 ANDs, so the guard now
   runs on the largest circuit the engine evaluates per vertex, the EN
   update step at l = 16 and D = 10 (6,361 ANDs): per-run buffers stay
   per-run, and only per-gate allocation moves the ratio. The first
   evaluation sets up the OT sessions, so only the second is measured. *)
let minor_words_per_and ~prefetch =
  let degree = 10 in
  let c =
    Vertex_program.update_circuit (En_program.make ~l:16 ~degree ~iterations:1 ()) ~degree
  in
  let plan = Plan.compile c in
  let s = Gmw.create_session ~mode:Ot_ext.Simulation grp ~parties:3 ~seed:"alloc-guard" in
  let shares = Gmw.share_input s (Bitvec.create c.Circuit.num_inputs false) in
  ignore (Gmw.eval s plan ~input_shares:shares);
  if prefetch then Gmw.preprocess s plan ~evals:1;
  let before = Gc.minor_words () in
  ignore (Gmw.eval s plan ~input_shares:shares);
  (Gc.minor_words () -. before) /. float_of_int (Circuit.and_count c)

let test_eval_allocation () =
  let per_and = minor_words_per_and ~prefetch:false in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per AND gate < 50" per_and)
    true (per_and < 50.)

(* With the keystream prefetched, the mask draws hash nothing and are
   written into one scratch buffer, so an evaluation allocates only its
   per-run buffers and output shares: 0.78 minor words per AND gate when
   each draw returned a fresh byte string (the 19,732-AND EN aggregation
   circuit, 3 parties, x86-64, OCaml 5.1). Today: ~260 words per
   evaluation of the EN update step, 0.04 per AND; the 597-AND
   aggregation circuit allocates ~170 words, 0.29 per AND. *)
let test_prefetched_eval_allocation () =
  let per_and = minor_words_per_and ~prefetch:true in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per AND gate < 0.25" per_and)
    true (per_and < 0.25)

let test_eval_many_rejects_mismatches () =
  let c = adder_circuit 4 in
  let plan = Plan.compile c in
  let s = make_sessions ~parties:2 ~count:2 "reject" in
  Alcotest.check_raises "share-set count"
    (Invalid_argument "Gmw.eval_many: need one input-share set per session") (fun () ->
      ignore (Gmw.eval_many s plan ~input_shares:[||]));
  let mixed =
    [| s.(0); Gmw.create_session ~mode:Ot_ext.Simulation grp ~parties:3 ~seed:"odd" |]
  in
  Alcotest.check_raises "party count"
    (Invalid_argument "Gmw.eval_many: sessions must agree on party count and OT mode")
    (fun () ->
      ignore
        (Gmw.eval_many mixed plan ~input_shares:(make_inputs ~parties:2 ~count:2 "reject" c)))

(* ------------------------------------------------------------------ *)
(* Golden fixtures: two successive evaluations per session             *)
(* ------------------------------------------------------------------ *)

(* The observables of the GMW evaluator, pinned in test/golden:
   - gmw_two_evals.json: [Gmw.eval] (one slot) on one session;
   - gmw_many_evals.json: [Gmw.eval_many] over several sessions, so lane
     packing and unpacking in the wire storage is pinned per slot.
   Each circuit is evaluated twice on the same sessions (the second shows
   the PRG and OT-session state the first left behind), and every
   evaluation records, per session, the output shares, the cumulative
   traffic matrix and the rounds / AND / OT counters. Before anything is
   compared or written, every evaluation's outputs must reconstruct to
   the plaintext result, so a fixture never pins wrong outputs. To
   regenerate the fixtures after an intentional change, run (from the
   repo root; the variable names the golden directory, and this suite
   writes only gmw_two_evals.json and gmw_many_evals.json there):

     DSTRESS_REGEN_GOLDEN=$PWD/test/golden dune exec test/test_slice.exe -- test golden

   and commit the updated files. *)

let golden_path file =
  let local = Filename.concat "golden" file in
  if Sys.file_exists local then local else Filename.concat "test/golden" file

let check_golden file current =
  match Sys.getenv_opt "DSTRESS_REGEN_GOLDEN" with
  | Some dir ->
      let path = Filename.concat dir file in
      Out_channel.with_open_bin path (fun oc -> output_string oc current);
      Printf.printf "regenerated %s\n" path
  | _ ->
      let expected = In_channel.with_open_bin (golden_path file) In_channel.input_all in
      Alcotest.(check string) file expected current

let render_bits v =
  String.init (Bitvec.length v) (fun i -> if Bitvec.get v i then '1' else '0')

let render_traffic ~parties:n t =
  let m = Array.make_matrix n n 0 in
  Traffic.iter_nonzero t (fun ~src ~dst b -> m.(src).(dst) <- b);
  let row r = "[" ^ String.concat "," (Array.to_list (Array.map string_of_int r)) ^ "]" in
  "[" ^ String.concat "," (Array.to_list (Array.map row m)) ^ "]"

(* One session's observables after an evaluation that returned [out]. *)
let render_eval ~indent ~parties s out =
  Printf.sprintf
    "%s{\"outputs\":[%s],\n%s \"traffic\":%s,\"rounds\":%d,\"and_gates\":%d,\"ots\":%d}"
    indent
    (String.concat "," (Array.to_list (Array.map (fun v -> "\"" ^ render_bits v ^ "\"") out)))
    indent
    (render_traffic ~parties (Gmw.traffic s))
    (Gmw.rounds s) (Gmw.and_gates_evaluated s) (Gmw.ots_performed s)

let render_two_evals ~name ~mode ~parties circuit =
  let s = Gmw.create_session ~mode grp ~parties ~seed:("golden:" ^ name) in
  let inputs = make_inputs ~parties ~count:2 ("golden:" ^ name) circuit in
  let plan = Plan.compile circuit in
  let eval i =
    let out = Gmw.eval s plan ~input_shares:inputs.(i) in
    check_reconstructs (Printf.sprintf "%s eval %d" name i) circuit inputs.(i) out;
    render_eval ~indent:"    " ~parties s out
  in
  let first = eval 0 in
  let second = eval 1 in
  Printf.sprintf "  \"%s\": [\n%s,\n%s\n  ]" name first second

let render_many_evals ~name ~mode ~parties ~count circuit =
  let tag = "golden-many:" ^ name in
  let sessions =
    Array.init count (fun i ->
        Gmw.create_session ~mode grp ~parties ~seed:(Printf.sprintf "%s:%d" tag i))
  in
  let plan = Plan.compile circuit in
  let eval e =
    let inputs = make_inputs ~parties ~count (Printf.sprintf "%s:eval%d" tag e) circuit in
    let outs = Gmw.eval_many sessions plan ~input_shares:inputs in
    Array.iteri
      (fun i out ->
        check_reconstructs (Printf.sprintf "%s eval %d slot %d" name e i) circuit inputs.(i) out)
      outs;
    let slots = Array.mapi (fun i s -> render_eval ~indent:"      " ~parties s outs.(i)) sessions in
    "    [\n" ^ String.concat ",\n" (Array.to_list slots) ^ "\n    ]"
  in
  let first = eval 0 in
  let second = eval 1 in
  Printf.sprintf "  \"%s\": [\n%s,\n%s\n  ]" name first second

let test_golden_two_evals () =
  check_golden "gmw_two_evals.json"
    ("{\n"
    ^ render_two_evals ~name:"en-aggregation" ~mode:Ot_ext.Simulation ~parties:3
        (en_aggregation_circuit ())
    ^ ",\n"
    ^ render_two_evals ~name:"adder-crypto" ~mode:Ot_ext.Crypto ~parties:3 (adder_circuit 4)
    ^ "\n}\n")

let test_golden_many_evals () =
  check_golden "gmw_many_evals.json"
    ("{\n"
    ^ render_many_evals ~name:"en-update-sim-x5" ~mode:Ot_ext.Simulation ~parties:3 ~count:5
        (en_update_circuit ())
    ^ ",\n"
    ^ render_many_evals ~name:"adder-crypto-x3" ~mode:Ot_ext.Crypto ~parties:3 ~count:3
        (adder_circuit 4)
    ^ "\n}\n")

(* ------------------------------------------------------------------ *)
(* Plan compilation                                                    *)
(* ------------------------------------------------------------------ *)

let test_plan_partition () =
  let prng = Prng.of_int 7 in
  for case = 0 to 3 do
    let c = random_circuit prng ~num_inputs:6 ~gates:50 in
    let plan = Plan.compile c in
    Alcotest.(check int)
      (Printf.sprintf "case %d: depth" case)
      (Circuit.and_depth c) (Plan.depth plan);
    Alcotest.(check int)
      (Printf.sprintf "case %d: AND count" case)
      (Circuit.and_count c) (Plan.and_count plan);
    Alcotest.(check int)
      (Printf.sprintf "case %d: wires" case)
      (Array.length c.Circuit.gates) (Plan.num_wires plan);
    (* The AND batch of round r holds exactly the AND gates at level r+1,
       in wire order. *)
    let levels = Circuit.and_levels c in
    Array.iteri
      (fun r (lv : Plan.level) ->
        let expected =
          c.Circuit.gates
          |> Array.to_seqi
          |> Seq.filter (fun (i, g) ->
                 match g with Circuit.And _ -> levels.(i) = r + 1 | _ -> false)
          |> Seq.map fst |> Array.of_seq
        in
        Alcotest.(check (array int))
          (Printf.sprintf "case %d round %d: batch" case r)
          expected lv.Plan.and_dst)
      (Plan.levels plan)
  done

(* ------------------------------------------------------------------ *)
(* Engine: the vertex grouping must not be observable in the report    *)
(* ------------------------------------------------------------------ *)

let token_program ~l ~iterations =
  {
    Vertex_program.name = "token";
    state_bits = l;
    message_bits = l;
    iterations;
    sensitivity = 1;
    epsilon = 0.5;
    noise_max_magnitude = 40;
    agg_bits = l + 6;
    build_update =
      (fun b ~state ~incoming ->
        let total =
          Word.truncate (Word.sum b ~bits:(l + 4) (Array.to_list incoming)) ~bits:l
        in
        (total, Array.map (fun _ -> state) incoming));
    build_aggregand = (fun b ~state -> Word.zero_extend b state ~bits:(l + 6));
  }

let ring_graph n = Graph.create ~n ~edges:(List.init n (fun i -> (i, (i + 1) mod n)))

let check_same_report label (a : Engine.report) (b : Engine.report) =
  let phases l = List.map (fun (p, v) -> (Engine.phase_name p, v)) l in
  Alcotest.(check int) (label ^ ": output") a.Engine.output b.Engine.output;
  Alcotest.(check (list (pair string int))) (label ^ ": phase bytes")
    (phases a.Engine.phase_bytes) (phases b.Engine.phase_bytes);
  Alcotest.(check bool) (label ^ ": traffic matrix") true
    (Traffic.equal a.Engine.traffic b.Engine.traffic);
  Alcotest.(check int) (label ^ ": failures") a.Engine.transfer_failures
    b.Engine.transfer_failures;
  Alcotest.(check int) (label ^ ": retries") a.Engine.transfer_retries
    b.Engine.transfer_retries;
  Alcotest.(check int) (label ^ ": crash recoveries") a.Engine.crash_recoveries
    b.Engine.crash_recoveries;
  Alcotest.(check bool) (label ^ ": fault counters") true
    (a.Engine.faults_injected = b.Engine.faults_injected);
  Alcotest.(check (float 0.0)) (label ^ ": retry epsilon") a.Engine.retry_epsilon
    b.Engine.retry_epsilon;
  Alcotest.(check (list (pair string (float 0.0)))) (label ^ ": recovery seconds")
    (phases a.Engine.recovery_seconds)
    (phases b.Engine.recovery_seconds)
  |> ignore;
  Alcotest.(check int) (label ^ ": mpc rounds") a.Engine.mpc_rounds b.Engine.mpc_rounds;
  Alcotest.(check int) (label ^ ": mpc ANDs") a.Engine.mpc_and_gates b.Engine.mpc_and_gates;
  Alcotest.(check int) (label ^ ": mpc OTs") a.Engine.mpc_ots b.Engine.mpc_ots

let test_engine_groupings_agree () =
  let n = 9 and l = 8 in
  let g = ring_graph n in
  let p = token_program ~l ~iterations:3 in
  let states =
    let prng = Prng.of_int 17 in
    Array.init n (fun _ -> Bitvec.of_int ~bits:l (1 + Prng.int prng 10))
  in
  (* Crash faults exercise the per-vertex recovery accounting inside
     grouped tasks. *)
  let plan = Fault.random_crashes ~seed:5 ~nodes:n ~rounds:4 ~count:2 in
  let run executor =
    let cfg =
      { (Engine.default_config grp ~k:2 ~degree_bound:2 ~seed:"slice-eq") with
        Engine.executor; fault_plan = plan }
    in
    Engine.run cfg p ~graph:g ~initial_states:states
  in
  (* parallel:9 gives one-vertex groups; the others pack several vertices
     into each GMW batch. *)
  let base = run (Executor.parallel ~jobs:n) in
  check_same_report "one-vertex groups vs 9 (seq)" base (run Executor.sequential);
  check_same_report "one-vertex groups vs 5 + 4 (par2, uneven)" base
    (run (Executor.parallel ~jobs:2));
  check_same_report "one-vertex groups vs 3 + 3 + 3 (par4)" base
    (run (Executor.parallel ~jobs:4))

let () =
  Alcotest.run "slice"
    [
      ( "gmw-equivalence",
        [
          Alcotest.test_case "random circuits" `Quick test_random_circuits;
          Alcotest.test_case "full + chunked slices" `Quick test_full_and_overfull_slices;
          Alcotest.test_case "EN update step" `Quick test_en_step;
          Alcotest.test_case "EGJ update step" `Quick test_egj_step;
          Alcotest.test_case "aggregation circuit" `Quick test_aggregation_circuit;
          Alcotest.test_case "crypto OT backend" `Quick test_crypto_mode;
          Alcotest.test_case "rejects mismatches" `Quick test_eval_many_rejects_mismatches;
          Alcotest.test_case "minor words per AND gate" `Quick test_eval_allocation;
          Alcotest.test_case "prefetched minor words per AND gate" `Quick
            test_prefetched_eval_allocation;
        ] );
      ( "golden",
        [
          Alcotest.test_case "two evals per session" `Quick test_golden_two_evals;
          Alcotest.test_case "two batched evals, many sessions" `Quick test_golden_many_evals;
        ] );
      ("plan", [ Alcotest.test_case "level partition" `Quick test_plan_partition ]);
      ("engine", [ Alcotest.test_case "groupings agree" `Quick test_engine_groupings_agree ]);
    ]
