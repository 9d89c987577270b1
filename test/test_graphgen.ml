module Prng = Dstress_util.Prng
module Reference = Dstress_risk.Reference
open Dstress_runtime
open Dstress_graphgen

let prng () = Prng.of_int 0x66

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)
(* ------------------------------------------------------------------ *)

let test_core_periphery_shape () =
  let t = prng () in
  let topo = Topology.core_periphery t ~core:10 ~periphery:40 () in
  Alcotest.(check int) "n" 50 topo.Topology.n;
  Alcotest.(check int) "core size" 10 (List.length topo.Topology.core);
  let deg = Topology.degree_table topo in
  (* Core banks are densely connected: much higher degree than periphery. *)
  let core_avg =
    List.fold_left (fun a c -> a + deg.(c)) 0 topo.Topology.core |> fun s ->
    float_of_int s /. 10.0
  in
  let peri_avg =
    let sum = ref 0 in
    for i = 10 to 49 do
      sum := !sum + deg.(i)
    done;
    float_of_int !sum /. 40.0
  in
  Alcotest.(check bool) "core denser" true (core_avg > 3.0 *. peri_avg);
  (* Every peripheral bank links only to the core, with 1-2 links. *)
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "no periphery-periphery link" true (a < 10 || b < 10))
    topo.Topology.links;
  for i = 10 to 49 do
    Alcotest.(check bool) "periphery degree 1-2" true (deg.(i) >= 1 && deg.(i) <= 2)
  done

let test_core_periphery_links_valid () =
  let t = prng () in
  let topo = Topology.core_periphery t ~core:5 ~periphery:20 () in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "ordered" true (a < b);
      Alcotest.(check bool) "in range" true (a >= 0 && b < 25))
    topo.Topology.links;
  let sorted = List.sort_uniq compare topo.Topology.links in
  Alcotest.(check int) "no duplicates" (List.length topo.Topology.links)
    (List.length sorted)

let test_scale_free_degree_skew () =
  let t = prng () in
  let topo = Topology.scale_free t ~n:200 ~attach:2 ~max_degree:50 in
  let deg = Topology.degree_table topo in
  Array.iter (fun d -> Alcotest.(check bool) "cap respected" true (d <= 50)) deg;
  let sorted = Array.copy deg in
  Array.sort (fun a b -> compare b a) sorted;
  (* Heavy tail: the top vertex has far more links than the median. *)
  Alcotest.(check bool) "hub exists" true (sorted.(0) >= 3 * sorted.(100));
  Alcotest.(check bool) "connected-ish" true (Array.for_all (fun d -> d >= 1) deg)

let test_erdos_renyi_degree () =
  let t = prng () in
  let topo = Topology.erdos_renyi t ~n:300 ~avg_degree:6.0 ~max_degree:15 in
  let deg = Topology.degree_table topo in
  let avg = float_of_int (Array.fold_left ( + ) 0 deg) /. 300.0 in
  Alcotest.(check bool) "avg close to 6" true (abs_float (avg -. 6.0) < 1.0);
  Array.iter (fun d -> Alcotest.(check bool) "cap" true (d <= 15)) deg

let test_ring () =
  let topo = Topology.ring ~n:7 in
  Alcotest.(check int) "links" 7 (List.length topo.Topology.links);
  Array.iter
    (fun d -> Alcotest.(check int) "degree 2" 2 d)
    (Topology.degree_table topo)

let test_topology_determinism () =
  let a = Topology.core_periphery (Prng.of_int 5) ~core:6 ~periphery:10 () in
  let b = Topology.core_periphery (Prng.of_int 5) ~core:6 ~periphery:10 () in
  Alcotest.(check bool) "same seed, same graph" true (a.Topology.links = b.Topology.links)

(* ------------------------------------------------------------------ *)
(* Banking                                                             *)
(* ------------------------------------------------------------------ *)

let test_en_instance_valid () =
  let t = prng () in
  let topo = Topology.core_periphery t ~core:8 ~periphery:24 () in
  let inst = Banking.en_of_topology t topo () in
  Reference.en_validate inst;
  Alcotest.(check int) "banks" 32 inst.Reference.en_n;
  (* Every undirected link yields both debt directions. *)
  Alcotest.(check int) "debt count" (2 * List.length topo.Topology.links)
    (List.length inst.Reference.debts)

let test_egj_instance_valid () =
  let t = prng () in
  let topo = Topology.core_periphery t ~core:8 ~periphery:24 () in
  let inst = Banking.egj_of_topology t topo () in
  Reference.egj_validate inst;
  (* orig_val is the healthy fixpoint: unshocked stress test finds no
     failures at thresholds below 1.0. *)
  let r = Reference.elliott_golub_jackson inst in
  Alcotest.(check (float 1e-3)) "healthy network has zero TDS" 0.0 r.Reference.egj_tds

let test_shock_severity_ordering () =
  (* Cascade shocks must produce strictly larger shortfalls than absorbed
     shocks on the same network — the Appendix C phenomenology. *)
  let t = prng () in
  let topo = Topology.core_periphery t ~core:10 ~periphery:40 () in
  let inst = Banking.en_of_topology t topo () in
  let absorbed = Banking.shock_en (Prng.of_int 1) inst topo Banking.Absorbed in
  let cascade = Banking.shock_en (Prng.of_int 1) inst topo Banking.Cascade in
  let tds_a = (Reference.eisenberg_noe absorbed).Reference.en_tds in
  let tds_c = (Reference.eisenberg_noe cascade).Reference.en_tds in
  Alcotest.(check bool) "cascade >> absorbed" true (tds_c > 3.0 *. tds_a);
  Alcotest.(check bool) "absorbed small but nonzero" true (tds_a > 0.0)

let test_shock_egj_ordering () =
  let t = prng () in
  let topo = Topology.core_periphery t ~core:10 ~periphery:40 () in
  let inst = Banking.egj_of_topology t topo () in
  let absorbed = Banking.shock_egj (Prng.of_int 2) inst topo Banking.Absorbed in
  let cascade = Banking.shock_egj (Prng.of_int 2) inst topo Banking.Cascade in
  let tds_a = (Reference.elliott_golub_jackson absorbed).Reference.egj_tds in
  let tds_c = (Reference.elliott_golub_jackson cascade).Reference.egj_tds in
  Alcotest.(check bool) "cascade larger" true (tds_c > tds_a)

let test_appendix_c_convergence () =
  (* Appendix C: on the two-tier 50-bank network, running for
     I = log2(n) + 2 rounds already captures the shortfall — the TDS is
     within a few percent of the fully converged value (shocks either die
     out or cascade through the shallow core quickly). *)
  List.iter
    (fun shock ->
      let inst, _ = Banking.appendix_c_network (Prng.of_int 77) shock in
      let full = (Reference.eisenberg_noe ~iterations:60 inst).Reference.en_tds in
      let short_i = 2 + int_of_float (ceil (log (float_of_int 50) /. log 2.0)) in
      let short = (Reference.eisenberg_noe ~iterations:short_i inst).Reference.en_tds in
      Alcotest.(check bool) "log2 n rounds suffice" true
        (abs_float (short -. full) <= 0.05 *. Float.max full 1.0))
    [ Banking.Absorbed; Banking.Cascade ]

let test_cascade_hits_core () =
  (* In the cascade scenario, core banks themselves become insolvent. *)
  let inst, topo = Banking.appendix_c_network (Prng.of_int 99) Banking.Cascade in
  let r = Reference.eisenberg_noe inst in
  let core_impaired =
    List.exists (fun c -> r.Reference.prorate.(c) < 0.999) topo.Topology.core
  in
  Alcotest.(check bool) "core impaired" true core_impaired

let test_absorbed_spares_core () =
  let inst, topo = Banking.appendix_c_network (Prng.of_int 99) Banking.Absorbed in
  let r = Reference.eisenberg_noe inst in
  let failed_core =
    List.filter (fun c -> r.Reference.prorate.(c) < 0.9) topo.Topology.core
  in
  Alcotest.(check int) "core survives" 0 (List.length failed_core)

(* ------------------------------------------------------------------ *)
(* Query: the recipe every clearing request runs                       *)
(* ------------------------------------------------------------------ *)

(* Network draws, encodings, sensitivity and engine config together pin
   the released outputs: `dstress stress --core 2 --periphery 2 -i 2
   --seed 1|2|3` (serve-en's shape on the toy group) prints 70, 42 and
   34, around plaintext values of 47, 42 and 45. *)
let test_query_outputs () =
  let grp = Dstress_crypto.Group.by_name "toy" in
  List.iter
    (fun (seed, want) ->
      let req =
        { Service.workload = Service.En; core = 2; periphery = 2; iterations = 2; k = 2; seed;
          slice_width = 64; ot_mode = Dstress_crypto.Ot_ext.Simulation; preprocess = false;
          executor = "" }
      in
      let report =
        Query.run ~grp ~obs_level:Dstress_obs.Obs.Off ~fault_plan:Dstress_faults.Fault.empty
          ~max_retries:2 ~backoff:0.05 req
          (Result.get_ok (Query.build ~epsilon:1.0 ~shock:Banking.Cascade req))
      in
      Alcotest.(check int) (Printf.sprintf "seed %d" seed) want report.Engine.output;
      Alcotest.(check int) "no transfer failures" 0 report.Engine.transfer_failures)
    [ (1, 70); (2, 42); (3, 34) ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_topologies_respect_cap =
  QCheck2.Test.make ~name:"topologies respect degree cap" ~count:30
    QCheck2.Gen.(pair (int_bound 1000) (int_range 3 10))
    (fun (seed, cap) ->
      let t = Prng.of_int seed in
      let topo = Topology.erdos_renyi t ~n:50 ~avg_degree:8.0 ~max_degree:cap in
      Array.for_all (fun d -> d <= cap) (Topology.degree_table topo))

let prop_en_generator_valid =
  QCheck2.Test.make ~name:"EN generator always valid" ~count:30
    QCheck2.Gen.(int_bound 1000)
    (fun seed ->
      let t = Prng.of_int seed in
      let topo = Topology.scale_free t ~n:30 ~attach:2 ~max_degree:12 in
      let inst = Banking.en_of_topology t topo () in
      Reference.en_validate inst;
      true)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest [ prop_topologies_respect_cap; prop_en_generator_valid ]
  in
  Alcotest.run "graphgen"
    [
      ( "topology",
        [
          Alcotest.test_case "core-periphery shape" `Quick test_core_periphery_shape;
          Alcotest.test_case "links valid" `Quick test_core_periphery_links_valid;
          Alcotest.test_case "scale-free skew" `Quick test_scale_free_degree_skew;
          Alcotest.test_case "erdos-renyi degree" `Quick test_erdos_renyi_degree;
          Alcotest.test_case "ring" `Quick test_ring;
          Alcotest.test_case "deterministic" `Quick test_topology_determinism;
        ] );
      ( "banking",
        [
          Alcotest.test_case "EN instance valid" `Quick test_en_instance_valid;
          Alcotest.test_case "EGJ instance valid" `Quick test_egj_instance_valid;
          Alcotest.test_case "shock severity ordering" `Quick test_shock_severity_ordering;
          Alcotest.test_case "EGJ shock ordering" `Quick test_shock_egj_ordering;
          Alcotest.test_case "appendix C convergence" `Quick test_appendix_c_convergence;
          Alcotest.test_case "cascade hits core" `Quick test_cascade_hits_core;
          Alcotest.test_case "absorbed spares core" `Quick test_absorbed_spares_core;
        ] );
      ("query", [ Alcotest.test_case "released EN outputs" `Quick test_query_outputs ]);
      ("properties", qsuite);
    ]
