(* Observability: determinism, well-formedness, and reconciliation.

   The contract under test (lib/obs + its integration in the runtime):

   - collector semantics: typed metrics registry, span stack, fork/merge
     rebasing, zero-cost Off mode, JSON printer/parser;
   - determinism: the exported trace and metrics of an engine run are
     byte-identical across Sequential/Parallel executors, and so across
     the engine's vertex groupings — with and without injected crash
     faults, and on a ring wider than one GMW word;
   - fault sensitivity: injecting crashes changes *only* the metrics that
     describe recovery (faults.*, reshare.*, computation bytes/recovery
     time, traffic shape) and does change them;
   - the span list forms a well-nested tree rooted at a single [run] span;
   - golden report: a small EN run's metrics JSON matches the checked-in
     snapshot. To regenerate after an intentional accounting change, run
     (from the repo root):

       DSTRESS_REGEN_GOLDEN=$PWD/test/golden/en_small_metrics.json \
         dune exec test/test_obs.exe

     and commit the updated file;
   - property: on randomized ring and banking topologies the registry
     totals reconcile exactly with the legacy Traffic row/column sums and
     the Engine.report counters. *)

module Bitvec = Dstress_util.Bitvec
module Prng = Dstress_util.Prng
module Group = Dstress_crypto.Group
module Traffic = Dstress_mpc.Traffic
module Fault = Dstress_faults.Fault
module Obs = Dstress_obs.Obs
module Json = Dstress_obs.Json
module Word = Dstress_circuit.Word
module En_program = Dstress_risk.En_program
module Topology = Dstress_graphgen.Topology
module Banking = Dstress_graphgen.Banking
open Dstress_runtime

let grp = Group.by_name "toy"

(* ------------------------------------------------------------------ *)
(* Collector semantics                                                 *)
(* ------------------------------------------------------------------ *)

let test_metrics_kinds () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "c";
  Obs.Metrics.incr ~by:4 m "c";
  Alcotest.(check int) "counter" 5 (Obs.Metrics.counter m "c");
  Obs.Metrics.add m "s" 1.5;
  Obs.Metrics.add m "s" 2.0;
  Alcotest.(check (float 1e-12)) "sum" 3.5 (Obs.Metrics.sum m "s");
  Obs.Metrics.set m "g" 7.0;
  Obs.Metrics.set m "g" 2.0;
  Alcotest.(check (float 0.0)) "gauge last write" 2.0 (Obs.Metrics.sum m "g");
  Obs.Metrics.observe_sketch m "h" 3.0;
  Obs.Metrics.observe_sketch m "h" 1.0;
  (match Obs.Metrics.find m "h" with
  | Some (Obs.Metrics.Quantiles q) ->
      Alcotest.(check int) "quantiles count" 2 (Dstress_obs.Sketch.count q);
      Alcotest.(check (float 0.0)) "quantiles min" 1.0 (Dstress_obs.Sketch.min_value q);
      Alcotest.(check (float 0.0)) "quantiles max" 3.0 (Dstress_obs.Sketch.max_value q)
  | _ -> Alcotest.fail "expected a quantile sketch");
  Alcotest.(check (list string)) "names sorted" [ "c"; "g"; "h"; "s" ] (Obs.Metrics.names m);
  Alcotest.(check int) "absent counter is 0" 0 (Obs.Metrics.counter m "nope");
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Obs.Metrics: \"c\" already has a different kind") (fun () ->
      Obs.Metrics.add m "c" 1.0)

let test_span_stack () =
  let t = Obs.create ~level:Obs.Full () in
  Obs.enter t "outer";
  Obs.advance t 10;
  Obs.enter t "inner";
  Obs.advance t 5;
  Obs.leave t;
  Obs.advance t 1;
  Obs.leave t;
  (match Obs.spans t with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner name" "inner" inner.Obs.name;
      Alcotest.(check int) "inner start" 10 inner.Obs.start;
      Alcotest.(check int) "inner dur" 5 inner.Obs.dur;
      Alcotest.(check int) "inner depth" 1 inner.Obs.depth;
      Alcotest.(check string) "outer name" "outer" outer.Obs.name;
      Alcotest.(check int) "outer dur" 16 outer.Obs.dur;
      Alcotest.(check int) "outer depth" 0 outer.Obs.depth
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  Alcotest.check_raises "unbalanced leave" (Invalid_argument "Obs.leave: no open span")
    (fun () -> Obs.leave t);
  (* [span] closes its span even when the body raises. *)
  (try Obs.span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "span closed on exception" 3 (List.length (Obs.spans t))

let test_off_is_noop () =
  let t = Obs.create ~level:Obs.Off () in
  Alcotest.(check bool) "create Off returns shared collector" true (t == Obs.off);
  Alcotest.(check bool) "fork returns self" true (Obs.fork t == t);
  Obs.enter t "x";
  Obs.advance t 100;
  Obs.incr t "c";
  Obs.leave t;
  Alcotest.(check int) "no spans" 0 (List.length (Obs.spans t));
  Alcotest.(check int) "no ticks" 0 (Obs.clock t);
  Alcotest.(check (list string)) "no metrics" [] (Obs.Metrics.names (Obs.metrics t))

let test_fork_merge () =
  let parent = Obs.create ~level:Obs.Full () in
  Obs.enter parent "phase";
  Obs.advance parent 100;
  let a = Obs.fork parent and b = Obs.fork parent in
  Obs.span a "task:0" (fun () -> Obs.advance a 10);
  Obs.incr a "n";
  Obs.span b "task:1" (fun () -> Obs.advance b 7);
  Obs.incr ~by:2 b "n";
  Obs.merge_into ~dst:parent a;
  Obs.merge_into ~dst:parent b;
  Obs.leave parent;
  Alcotest.(check int) "metrics folded" 3 (Obs.Metrics.counter (Obs.metrics parent) "n");
  (match List.sort (fun x y -> compare x.Obs.start y.Obs.start) (Obs.spans parent) with
  | [ phase; t0; t1 ] ->
      Alcotest.(check string) "first child" "task:0" t0.Obs.name;
      Alcotest.(check int) "rebased start" 100 t0.Obs.start;
      Alcotest.(check int) "rebased depth" 1 t0.Obs.depth;
      Alcotest.(check int) "second child after first" 110 t1.Obs.start;
      Alcotest.(check int) "parent absorbed child ticks" 117 phase.Obs.dur
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l));
  let bad = Obs.fork parent in
  Obs.enter bad "open";
  Alcotest.check_raises "merge with open span"
    (Invalid_argument "Obs.merge_into: child has open spans") (fun () ->
      Obs.merge_into ~dst:parent bad)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int (-3));
        ("b", Json.Num 1.25);
        ("c", Json.Str "q\"\\\n\tz");
        ("d", Json.List [ Json.Bool true; Json.Null; Json.Obj [] ]);
      ]
  in
  let s = Json.to_string v in
  (match Json.parse s with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Json.parse "{\"x\": [1, 2.5, \"\\u0041\"]}" with
  | Ok (Json.Obj [ ("x", Json.List [ Json.Int 1; Json.Num 2.5; Json.Str "A" ]) ]) -> ()
  | Ok _ -> Alcotest.fail "unexpected parse tree"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Json.parse "{\"a\": 1,}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing comma accepted")

(* ------------------------------------------------------------------ *)
(* Engine runs used by the differential and property tests             *)
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

let ring_run ?(level = Obs.Full) ?(fault_plan = Fault.empty) ?(n = 9) ?(iterations = 3)
    ~executor () =
  let l = 8 in
  let g = ring_graph n in
  let p = token_program ~l ~iterations in
  let states =
    let prng = Prng.of_int 17 in
    Array.init n (fun _ -> Bitvec.of_int ~bits:l (1 + Prng.int prng 10))
  in
  let cfg =
    { (Engine.default_config grp ~k:2 ~degree_bound:2 ~seed:"obs-eq") with
      Engine.executor; fault_plan; obs_level = level }
  in
  Engine.run cfg p ~graph:g ~initial_states:states

(* ------------------------------------------------------------------ *)
(* Differential: exports must not depend on the schedule               *)
(* ------------------------------------------------------------------ *)

let check_exports_equal label (a : Engine.report) (b : Engine.report) =
  Alcotest.(check string) (label ^ ": trace bytes") (Obs.trace_json a.Engine.obs)
    (Obs.trace_json b.Engine.obs);
  Alcotest.(check string) (label ^ ": metrics bytes") (Obs.metrics_json a.Engine.obs)
    (Obs.metrics_json b.Engine.obs);
  Alcotest.(check string) (label ^ ": metrics csv") (Obs.metrics_csv a.Engine.obs)
    (Obs.metrics_csv b.Engine.obs)

(* Each run groups the vertices differently: on the default 9-vertex ring
   Sequential runs one group of 9, and parallel:2, :4 and :9 run groups of
   5 + 4, 3 + 3 + 3 and one vertex each. *)
let differential ?(n = 9) ?(jobs = [ 2; 4; 9 ]) ~fault_plan label =
  let base = ring_run ~fault_plan ~n ~executor:Executor.sequential () in
  List.iter
    (fun j ->
      check_exports_equal
        (Printf.sprintf "%s: seq vs par%d" label j)
        base
        (ring_run ~fault_plan ~n ~executor:(Executor.parallel ~jobs:j) ()))
    jobs

let crash_plan = Fault.random_crashes ~seed:5 ~nodes:9 ~rounds:4 ~count:2

let test_differential_clean () = differential ~fault_plan:Fault.empty "clean"
let test_differential_faulty () = differential ~fault_plan:crash_plan "faulty"

(* 70 vertices exceed one 64-lane word: Sequential runs groups of 64 + 6,
   parallel:2 runs 35 + 35 and parallel:3 runs 24 + 24 + 22. *)
let test_differential_wide () =
  let n = 70 in
  let fault_plan = Fault.random_crashes ~seed:5 ~nodes:n ~rounds:4 ~count:2 in
  differential ~n ~jobs:[ 2; 3 ] ~fault_plan "wide"

(* Crash faults may move exactly the recovery-describing metrics — and
   must actually move them. Everything else (MPC work, transfer counters,
   non-computation phases) is required to be untouched. *)
let metric_map (r : Engine.report) =
  match Json.parse (Obs.metrics_json r.Engine.obs) with
  | Ok (Json.Obj fields) -> fields
  | Ok _ -> Alcotest.fail "metrics JSON is not an object"
  | Error e -> Alcotest.failf "metrics JSON did not parse: %s" e

let fault_sensitive key =
  let has_prefix p = String.length key >= String.length p && String.sub key 0 (String.length p) = p in
  has_prefix "faults." || has_prefix "reshare." || has_prefix "traffic."
  || key = "phase.computation.bytes"
  || key = "phase.computation.recovery_seconds"

let test_fault_diff_is_scoped () =
  let clean = ring_run ~fault_plan:Fault.empty ~executor:Executor.sequential () in
  let faulty = ring_run ~fault_plan:crash_plan ~executor:Executor.sequential () in
  let mc = metric_map clean and mf = metric_map faulty in
  let keys m = List.map fst m in
  List.iter
    (fun k ->
      let vc = List.assoc_opt k mc and vf = List.assoc_opt k mf in
      if vc <> vf && not (fault_sensitive k) then
        Alcotest.failf "metric %S changed under crash faults" k)
    (List.sort_uniq compare (keys mc @ keys mf));
  let faulty_m = Obs.metrics faulty.Engine.obs in
  Alcotest.(check bool) "recovery events recorded" true
    (Obs.Metrics.counter faulty_m "faults.crash_recoveries" > 0);
  Alcotest.(check bool) "reshare traffic recorded" true
    (Obs.Metrics.counter faulty_m "reshare.bytes" > 0);
  Alcotest.(check int) "clean run has no recovery metric" 0
    (Obs.Metrics.counter (Obs.metrics clean.Engine.obs) "faults.crash_recoveries");
  Alcotest.(check int) "same MPC work" clean.Engine.mpc_and_gates faulty.Engine.mpc_and_gates

let test_level_off_collects_nothing () =
  (* Off really collects nothing and reuses the shared collector. *)
  let off = ring_run ~level:Obs.Off ~executor:Executor.sequential () in
  Alcotest.(check bool) "off run uses shared collector" true (off.Engine.obs == Obs.off);
  Alcotest.(check int) "off run has no spans" 0 (List.length (Obs.spans off.Engine.obs))

(* ------------------------------------------------------------------ *)
(* Span-tree well-formedness                                           *)
(* ------------------------------------------------------------------ *)

let test_span_tree_well_formed () =
  let r = ring_run ~fault_plan:crash_plan ~executor:Executor.sequential () in
  let spans = Obs.spans r.Engine.obs in
  let roots = List.filter (fun s -> s.Obs.depth = 0) spans in
  (match roots with
  | [ root ] ->
      Alcotest.(check string) "root span" "run" root.Obs.name;
      List.iter
        (fun s ->
          Alcotest.(check bool) (s.Obs.name ^ ": nonneg start") true (s.Obs.start >= 0);
          Alcotest.(check bool) (s.Obs.name ^ ": nonneg dur") true (s.Obs.dur >= 0);
          Alcotest.(check bool) (s.Obs.name ^ ": inside run") true
            (s.Obs.start >= root.Obs.start
            && s.Obs.start + s.Obs.dur <= root.Obs.start + root.Obs.dur))
        spans
  | l -> Alcotest.failf "expected exactly one root span, got %d" (List.length l));
  (* Every non-root span nests inside some span one level up. *)
  List.iter
    (fun s ->
      if s.Obs.depth > 0 then
        let parent =
          List.exists
            (fun p ->
              p.Obs.depth = s.Obs.depth - 1
              && p.Obs.start <= s.Obs.start
              && s.Obs.start + s.Obs.dur <= p.Obs.start + p.Obs.dur)
            spans
        in
        if not parent then
          Alcotest.failf "span %s (depth %d) has no enclosing parent" s.Obs.name s.Obs.depth)
    spans;
  let count prefix =
    List.length
      (List.filter
         (fun s ->
           String.length s.Obs.name >= String.length prefix
           && String.sub s.Obs.name 0 (String.length prefix) = prefix)
         spans)
  in
  (* 9 vertices x (3 iterations + final step), 9 ring edges x 3 rounds. *)
  Alcotest.(check int) "one span per vertex per step" 36 (count "vertex:");
  Alcotest.(check int) "one span per edge per round" 27 (count "xfer:");
  Alcotest.(check int) "round spans" 4 (count "round:");
  Alcotest.(check bool) "attempt spans under transfers" true (count "attempt:" >= 27)

(* ------------------------------------------------------------------ *)
(* Golden EN metrics snapshot                                          *)
(* ------------------------------------------------------------------ *)

(* Under `dune runtest` the cwd is the test directory (the dune [deps]
   copy); under a bare `dune exec test/test_obs.exe` it is the repo root. *)
let golden_path =
  if Sys.file_exists "golden/en_small_metrics.json" then "golden/en_small_metrics.json"
  else "test/golden/en_small_metrics.json"

let small_en_run () =
  let prng = Prng.of_int 0x60 in
  let topo = Topology.erdos_renyi prng ~n:6 ~avg_degree:2.0 ~max_degree:3 in
  let inst = Banking.en_of_topology prng topo () in
  let graph = En_program.graph_of_instance inst in
  let d = max 1 (Graph.max_degree graph) in
  let l = 8 and iterations = 2 in
  let p = En_program.make ~l ~degree:d ~iterations () in
  let states = En_program.encode_instance inst ~graph ~l ~degree:d ~scale:0.25 in
  let cfg =
    { (Engine.default_config grp ~k:1 ~degree_bound:d ~seed:"golden-en") with
      Engine.obs_level = Obs.Full }
  in
  Engine.run cfg p ~graph ~initial_states:states

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_golden_en_metrics () =
  let r = small_en_run () in
  let current = Obs.metrics_json r.Engine.obs ^ "\n" in
  match Sys.getenv_opt "DSTRESS_REGEN_GOLDEN" with
  | Some path ->
      let oc = open_out_bin path in
      output_string oc current;
      close_out oc;
      Printf.printf "regenerated %s\n" path
  | None ->
      let expected = read_file golden_path in
      if String.trim expected = "{}" then
        Alcotest.fail "golden file is the placeholder; regenerate it (see header)"
      else Alcotest.(check string) "EN metrics snapshot" expected current

(* ------------------------------------------------------------------ *)
(* Property: registry reconciles with Traffic and the report           *)
(* ------------------------------------------------------------------ *)

let reconcile (r : Engine.report) =
  let m = Obs.metrics r.Engine.obs in
  let c = Obs.Metrics.counter m and s = Obs.Metrics.sum m in
  let t = r.Engine.traffic in
  Alcotest.(check int) "traffic.bytes = Traffic.total" (Traffic.total t) (c "traffic.bytes");
  Alcotest.(check int) "traffic.external_bytes" (Traffic.external_total t)
    (c "traffic.external_bytes");
  Alcotest.(check (float 0.0)) "traffic.max_node_bytes"
    (float_of_int (Traffic.max_per_node t))
    (s "traffic.max_node_bytes");
  Alcotest.(check (float 1e-9)) "traffic.mean_node_bytes" (Traffic.mean_per_node t)
    (s "traffic.mean_node_bytes");
  (* Per-node gauges are the matrix's row/column sums. *)
  for i = 0 to Traffic.parties t - 1 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "node %d sent" i)
      (float_of_int (Traffic.sent_by t i))
      (s (Printf.sprintf "traffic.node.%03d.sent" i));
    Alcotest.(check (float 0.0))
      (Printf.sprintf "node %d received" i)
      (float_of_int (Traffic.received_by t i))
      (s (Printf.sprintf "traffic.node.%03d.received" i))
  done;
  (* Phase byte counters match the report, and together cover the matrix. *)
  List.iter
    (fun (ph, b) ->
      Alcotest.(check int)
        ("phase bytes: " ^ Engine.phase_name ph)
        b
        (c ("phase." ^ Engine.phase_name ph ^ ".bytes")))
    r.Engine.phase_bytes;
  Alcotest.(check int) "phase bytes sum to total traffic" (Traffic.total t)
    (List.fold_left (fun a (_, b) -> a + b) 0 r.Engine.phase_bytes);
  (* MPC, transfer, fault and privacy counters mirror the report. *)
  Alcotest.(check int) "mpc.rounds" r.Engine.mpc_rounds (c "mpc.rounds");
  Alcotest.(check int) "mpc.and_gates" r.Engine.mpc_and_gates (c "mpc.and_gates");
  Alcotest.(check int) "mpc.ots" r.Engine.mpc_ots (c "mpc.ots");
  Alcotest.(check int) "transfer.failures" r.Engine.transfer_failures (c "transfer.failures");
  Alcotest.(check int) "transfer.retries" r.Engine.transfer_retries (c "transfer.retries");
  Alcotest.(check int) "transfer.recovered" r.Engine.recovered_failures (c "transfer.recovered");
  Alcotest.(check int) "transfer.unrecovered" r.Engine.unrecovered_failures
    (c "transfer.unrecovered");
  Alcotest.(check int) "faults.crash_recoveries" r.Engine.crash_recoveries
    (c "faults.crash_recoveries");
  List.iter
    (fun (k, n) ->
      if n > 0 then
        Alcotest.(check int)
          ("faults.injected." ^ Fault.kind_name k)
          n
          (c ("faults.injected." ^ Fault.kind_name k)))
    r.Engine.faults_injected;
  Alcotest.(check (float 1e-9)) "privacy.retry_epsilon" r.Engine.retry_epsilon
    (s "privacy.retry_epsilon");
  List.iter
    (fun (ph, sec) ->
      Alcotest.(check (float 1e-9))
        ("recovery seconds: " ^ Engine.phase_name ph)
        sec
        (s ("phase." ^ Engine.phase_name ph ^ ".recovery_seconds")))
    (List.filter (fun (_, sec) -> sec > 0.0) r.Engine.recovery_seconds)

let test_reconcile_property () =
  let gen =
    QCheck.Gen.(
      triple (int_range 5 9) (int_range 1 2) (int_range 0 2)
      |> map (fun (n, iters, crashes) -> (n, iters, crashes)))
  in
  let arb = QCheck.make ~print:(fun (n, i, c) -> Printf.sprintf "n=%d i=%d crashes=%d" n i c) gen in
  let prop (n, iterations, crashes) =
    let fault_plan =
      if crashes = 0 then Fault.empty
      else Fault.random_crashes ~seed:(n + iterations) ~nodes:n ~rounds:(iterations + 1) ~count:crashes
    in
    let r = ring_run ~fault_plan ~n ~iterations ~executor:Executor.sequential () in
    reconcile r;
    true
  in
  QCheck.Test.check_exn (QCheck.Test.make ~count:6 ~name:"ring reconciles" arb prop)

let test_reconcile_banking () =
  (* One banking-topology EN run, with edge faults so the transfer and
     retry counters are nonzero. *)
  let prng = Prng.of_int 0xB4 in
  let topo = Topology.core_periphery prng ~core:2 ~periphery:3 () in
  let inst = Banking.en_of_topology prng topo () in
  let graph = En_program.graph_of_instance inst in
  let d = max 1 (Graph.max_degree graph) in
  let iterations = 2 in
  let p = En_program.make ~l:12 ~degree:d ~iterations () in
  let states = En_program.encode_instance inst ~graph ~l:12 ~degree:d ~scale:0.25 in
  let rates = { Fault.no_faults with drop = 0.15; miss = 0.15 } in
  let plan =
    Fault.random_plan ~seed:11 ~rounds:(iterations + 1) ~nodes:(Graph.n graph)
      ~edges:(Graph.edges graph) rates
  in
  let cfg =
    { (Engine.default_config grp ~k:2 ~degree_bound:d ~seed:"obs-banking") with
      Engine.obs_level = Obs.Full;
      fault_plan = plan }
  in
  let r = Engine.run cfg p ~graph ~initial_states:states in
  reconcile r;
  Alcotest.(check bool) "some transfer attempts retried" true (r.Engine.transfer_retries > 0)

let () =
  Alcotest.run "obs"
    [
      ( "collector",
        [
          Alcotest.test_case "metric kinds" `Quick test_metrics_kinds;
          Alcotest.test_case "span stack" `Quick test_span_stack;
          Alcotest.test_case "off is a no-op" `Quick test_off_is_noop;
          Alcotest.test_case "fork and merge" `Quick test_fork_merge;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "clean run exports" `Quick test_differential_clean;
          Alcotest.test_case "faulty run exports" `Quick test_differential_faulty;
          Alcotest.test_case "fault diff is scoped" `Quick test_fault_diff_is_scoped;
          Alcotest.test_case "off collects nothing" `Quick test_level_off_collects_nothing;
          Alcotest.test_case "groupings wider than one word" `Quick test_differential_wide;
        ] );
      ( "trace",
        [ Alcotest.test_case "span tree well-formed" `Quick test_span_tree_well_formed ] );
      ("golden", [ Alcotest.test_case "EN metrics snapshot" `Quick test_golden_en_metrics ]);
      ( "reconciliation",
        [
          Alcotest.test_case "ring topologies" `Quick test_reconcile_property;
          Alcotest.test_case "banking topology with edge faults" `Quick test_reconcile_banking;
        ] );
    ]
