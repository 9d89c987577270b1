module Group = Dstress_crypto.Group
module Prng = Dstress_util.Prng
open Dstress_costmodel
open Dstress_baseline

let grp = Group.by_name "toy"

(* Fixed synthetic units so projection tests are deterministic and fast. *)
let units =
  {
    Projection.ot_seconds_per_and_per_pair = 1e-6;
    mpc_bytes_per_and_per_pair = 16.25;
    exp_seconds = 2e-5;
    element_bytes = 8;
  }

(* ------------------------------------------------------------------ *)
(* Projection                                                          *)
(* ------------------------------------------------------------------ *)

let project ?iterations ?(n = 500) ?(d = 40) ?(k = 19) () =
  Projection.project units { Projection.n; d; k; l = 16; iterations; tree_fanout = 100 }

let test_measure_units_sane () =
  let u = Projection.measure_units grp ~seed:"t" in
  Alcotest.(check bool) "ot time positive" true (u.Projection.ot_seconds_per_and_per_pair > 0.0);
  Alcotest.(check bool) "ot time sub-ms" true (u.Projection.ot_seconds_per_and_per_pair < 1e-3);
  (* IKNP moves at least kappa bits per OT. *)
  Alcotest.(check bool) "bytes >= kappa/8" true (u.Projection.mpc_bytes_per_and_per_pair >= 16.0);
  Alcotest.(check bool) "exp positive" true (u.Projection.exp_seconds > 0.0);
  Alcotest.(check int) "element bytes" (Group.element_bytes grp) u.Projection.element_bytes

let test_projection_iterations_default () =
  let pr = project ~n:1750 () in
  Alcotest.(check int) "log2 1750 rounds up to 11" 11 pr.Projection.iterations_used;
  let pr2 = project ~iterations:7 () in
  Alcotest.(check int) "explicit" 7 pr2.Projection.iterations_used

let test_projection_monotone_in_d () =
  let t10 = (Projection.project units { Projection.paper_scale with Projection.d = 10 }).Projection.total_seconds in
  let t100 = (Projection.project units Projection.paper_scale).Projection.total_seconds in
  Alcotest.(check bool) "D=100 costs more" true (t100 > 3.0 *. t10)

let test_projection_traffic_monotone_in_k () =
  let b k = (project ~k ()).Projection.total_bytes_per_node in
  Alcotest.(check bool) "k=19 > k=7" true (b 19 > b 7)

let test_projection_total_is_sum () =
  let pr = project () in
  Alcotest.(check (float 1e-6)) "sum of phases"
    (pr.Projection.compute_seconds +. pr.Projection.communicate_seconds
    +. pr.Projection.aggregate_seconds)
    pr.Projection.total_seconds;
  Alcotest.(check (float 1e-6)) "traffic sum"
    (pr.Projection.mpc_bytes_per_node +. pr.Projection.transfer_bytes_per_node)
    pr.Projection.total_bytes_per_node

let test_update_ands_grows_linearly_in_d () =
  let a10 = Projection.update_ands ~l:12 ~d:10 in
  let a100 = Projection.update_ands ~l:12 ~d:100 in
  let ratio = float_of_int a100 /. float_of_int a10 in
  (* The per-slot work dominates: close to x10 with a fixed offset. *)
  Alcotest.(check bool) "roughly linear in D" true (ratio > 6.0 && ratio < 10.5)

let test_transfer_wall_monotone () =
  let t k = Projection.transfer_wall_seconds units ~k ~l:12 in
  Alcotest.(check bool) "monotone in k" true (t 19 > t 7);
  Alcotest.(check bool) "positive" true (t 3 > 0.0)

(* ------------------------------------------------------------------ *)
(* Utility                                                             *)
(* ------------------------------------------------------------------ *)

let test_utility_paper_numbers () =
  let p = Utility.paper_policy in
  let eps = Utility.epsilon_for_accuracy p in
  Alcotest.(check bool) "eps ~ 0.23" true (abs_float (eps -. 0.2303) < 0.001);
  Alcotest.(check int) "3 runs per year" 3 (Utility.runs_per_year p)

let test_utility_epsilon_monotone_in_accuracy () =
  let p = Utility.paper_policy in
  let tighter = { p with Utility.accuracy_dollars = 100e9 } in
  Alcotest.(check bool) "tighter accuracy costs more eps" true
    (Utility.epsilon_for_accuracy tighter > Utility.epsilon_for_accuracy p)

let test_utility_monte_carlo () =
  let p = Utility.paper_policy in
  let eps = Utility.epsilon_for_accuracy p in
  let stats = Utility.monte_carlo (Prng.of_int 3) p ~epsilon:eps ~samples:50_000 in
  (* The paper's half-tail convention yields ~90% two-sided coverage. *)
  Alcotest.(check bool) "coverage near 90%" true
    (stats.Utility.within_target > 0.85 && stats.Utility.within_target < 0.95);
  (* Mean |Laplace(b)| = b. *)
  let scale = Utility.noise_scale_dollars p ~epsilon:eps in
  Alcotest.(check bool) "mean |err| ~ scale" true
    (abs_float (stats.Utility.mean_abs_error -. scale) /. scale < 0.05)

let test_utility_detection () =
  let p = Utility.paper_policy in
  let tp, fp =
    Utility.detection_rate (Prng.of_int 9) p ~epsilon:0.23 ~crisis_tds:1500e9
      ~calm_tds:500e9 ~threshold:1000e9 ~samples:20_000
  in
  Alcotest.(check bool) "TPR high" true (tp > 0.95);
  Alcotest.(check bool) "FPR low" true (fp < 0.05)

let test_utility_rejects_bad_policy () =
  Alcotest.(check bool) "bad confidence" true
    (try
       ignore
         (Utility.epsilon_for_accuracy { Utility.paper_policy with Utility.confidence = 1.5 });
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Baseline                                                            *)
(* ------------------------------------------------------------------ *)

let test_matmul_circuit_correct () =
  (* 2x2 integer product through the plaintext evaluator. *)
  let bits = 8 in
  let c = Matmul.circuit ~n:2 ~bits in
  let encode m = List.concat_map (fun v -> List.init bits (fun i -> (v lsr i) land 1 = 1)) m in
  let a = [ 3; 5; 2; 7 ] and b = [ 1; 4; 6; 2 ] in
  let out = Dstress_circuit.Circuit.eval c (Array.of_list (encode a @ encode b)) in
  let entry idx =
    let r = ref 0 in
    for i = bits - 1 downto 0 do
      r := (!r lsl 1) lor (if out.((idx * bits) + i) then 1 else 0)
    done;
    !r
  in
  (* [3 5; 2 7] x [1 4; 6 2] = [33 22; 44 22] *)
  Alcotest.(check int) "c00" 33 (entry 0);
  Alcotest.(check int) "c01" 22 (entry 1);
  Alcotest.(check int) "c10" 44 (entry 2);
  Alcotest.(check int) "c11" 22 (entry 3)

let test_matmul_and_gates_cubic () =
  let and_gates n = Dstress_circuit.Circuit.and_count (Matmul.circuit ~n ~bits:8) in
  let a4 = and_gates 4 in
  let a8 = and_gates 8 in
  let ratio = float_of_int a8 /. float_of_int a4 in
  Alcotest.(check bool) "x8 for doubled n" true (ratio > 6.5 && ratio < 9.5)

let test_matmul_measure () =
  let m = Matmul.measure grp ~parties:3 ~n:3 ~bits:8 ~seed:"t" in
  Alcotest.(check bool) "time positive" true (m.Matmul.seconds > 0.0);
  Alcotest.(check bool) "bytes positive" true (m.Matmul.total_bytes > 0);
  Alcotest.(check int) "n recorded" 3 m.Matmul.n

let test_fit_and_extrapolate () =
  (* Perfect cubic data recovers the coefficient. *)
  let mk n = { Matmul.n; seconds = 2e-4 *. float_of_int (n * n * n); and_count = 0; total_bytes = 0 } in
  let c = Matmul.fit_cubic [ mk 5; mk 10; mk 20 ] in
  Alcotest.(check bool) "coefficient recovered" true (abs_float (c -. 2e-4) < 1e-9);
  let s = Matmul.extrapolate_seconds ~c ~n:100 ~powers:3 in
  Alcotest.(check (float 1.0)) "extrapolation" (2e-4 *. 1e6 *. 3.0) s;
  Alcotest.(check bool) "years" true (abs_float (Matmul.years 31_557_600.0 -. 1.0) < 1e-9)

let () =
  Alcotest.run "costmodel"
    [
      ( "projection",
        [
          Alcotest.test_case "measure units" `Quick test_measure_units_sane;
          Alcotest.test_case "iteration default" `Quick test_projection_iterations_default;
          Alcotest.test_case "monotone in D" `Quick test_projection_monotone_in_d;
          Alcotest.test_case "traffic monotone in k" `Quick test_projection_traffic_monotone_in_k;
          Alcotest.test_case "totals are sums" `Quick test_projection_total_is_sum;
          Alcotest.test_case "ANDs linear in D" `Quick test_update_ands_grows_linearly_in_d;
          Alcotest.test_case "transfer wall" `Quick test_transfer_wall_monotone;
        ] );
      ( "utility",
        [
          Alcotest.test_case "paper numbers" `Quick test_utility_paper_numbers;
          Alcotest.test_case "eps monotone in accuracy" `Quick
            test_utility_epsilon_monotone_in_accuracy;
          Alcotest.test_case "monte carlo" `Quick test_utility_monte_carlo;
          Alcotest.test_case "crisis detection" `Quick test_utility_detection;
          Alcotest.test_case "rejects bad policy" `Quick test_utility_rejects_bad_policy;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "matmul circuit" `Quick test_matmul_circuit_correct;
          Alcotest.test_case "cubic AND growth" `Quick test_matmul_and_gates_cubic;
          Alcotest.test_case "measure" `Quick test_matmul_measure;
          Alcotest.test_case "fit + extrapolate" `Quick test_fit_and_extrapolate;
        ] );
    ]
