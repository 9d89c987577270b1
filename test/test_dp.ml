open Dstress_dp
module Prng = Dstress_util.Prng
module Stats = Dstress_util.Stats
module Builder = Dstress_circuit.Builder
module Word = Dstress_circuit.Word
module Circuit = Dstress_circuit.Circuit
module Bitvec = Dstress_util.Bitvec

let prng () = Prng.of_int 0xD9

(* ------------------------------------------------------------------ *)
(* Laplace                                                             *)
(* ------------------------------------------------------------------ *)

let test_laplace_moments () =
  let t = prng () in
  let scale = 3.0 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Mechanism.laplace t ~scale) in
  Alcotest.(check bool) "mean near 0" true (abs_float (Stats.mean xs) < 0.1);
  (* Var(Laplace(b)) = 2 b^2 -> std = b * sqrt 2. *)
  let expected_std = scale *. sqrt 2.0 in
  Alcotest.(check bool) "std near b*sqrt2" true
    (abs_float (Stats.stddev xs -. expected_std) < 0.15)

let test_laplace_symmetric () =
  let t = prng () in
  let n = 20_000 in
  let pos = ref 0 in
  for _ = 1 to n do
    if Mechanism.laplace t ~scale:1.0 > 0.0 then incr pos
  done;
  Alcotest.(check bool) "symmetric" true (abs (!pos - (n / 2)) < 500)

let test_laplace_rejects_bad_scale () =
  Alcotest.check_raises "scale <= 0" (Invalid_argument "Mechanism.laplace: scale <= 0")
    (fun () -> ignore (Mechanism.laplace (prng ()) ~scale:0.0))

let test_laplace_mechanism_centers () =
  let t = prng () in
  let n = 20_000 in
  let xs =
    Array.init n (fun _ ->
        Mechanism.laplace_mechanism t ~sensitivity:2.0 ~epsilon:1.0 100.0)
  in
  Alcotest.(check bool) "centered at value" true (abs_float (Stats.mean xs -. 100.0) < 0.1)

(* ------------------------------------------------------------------ *)
(* Geometric                                                           *)
(* ------------------------------------------------------------------ *)

let test_geometric_one_sided_pmf () =
  let t = prng () in
  let alpha = 0.6 in
  let n = 100_000 in
  let counts = Array.make 20 0 in
  for _ = 1 to n do
    let k = Mechanism.geometric_one_sided t ~alpha in
    if k < 20 then counts.(k) <- counts.(k) + 1
  done;
  for k = 0 to 5 do
    let expected = (1.0 -. alpha) *. (alpha ** float_of_int k) in
    let got = float_of_int counts.(k) /. float_of_int n in
    Alcotest.(check bool)
      (Printf.sprintf "P(X=%d)" k)
      true
      (abs_float (got -. expected) < 0.01)
  done

let test_geometric_two_sided_symmetric_pmf () =
  let t = prng () in
  let alpha = 0.5 in
  let n = 100_000 in
  let counts = Hashtbl.create 64 in
  for _ = 1 to n do
    let d = Mechanism.geometric_two_sided t ~alpha in
    Hashtbl.replace counts d (1 + Option.value ~default:0 (Hashtbl.find_opt counts d))
  done;
  let freq d = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts d)) /. float_of_int n in
  for d = -3 to 3 do
    let expected = (1.0 -. alpha) /. (1.0 +. alpha) *. (alpha ** float_of_int (abs d)) in
    Alcotest.(check bool)
      (Printf.sprintf "P(Y=%d)" d)
      true
      (abs_float (freq d -. expected) < 0.01)
  done

let test_transfer_noise_is_even () =
  let t = prng () in
  for _ = 1 to 1000 do
    let v = Mechanism.transfer_noise t ~alpha:0.5 ~delta:20 in
    Alcotest.(check int) "even" 0 (abs v mod 2)
  done

let test_geometric_mechanism_dp_ratio () =
  (* Empirical check of the DP inequality: for neighboring values v, v+1
     (sensitivity 1) the output distributions should differ by at most
     e^eps pointwise (with sampling slack). *)
  let eps = 0.8 in
  let n = 200_000 in
  let sample v =
    let t = prng () in
    let counts = Hashtbl.create 64 in
    for _ = 1 to n do
      let o = Mechanism.geometric_mechanism t ~sensitivity:1 ~epsilon:eps v in
      Hashtbl.replace counts o (1 + Option.value ~default:0 (Hashtbl.find_opt counts o))
    done;
    counts
  in
  let c0 = sample 0 and c1 = sample 1 in
  let ratio_ok = ref true in
  Hashtbl.iter
    (fun o n0 ->
      match Hashtbl.find_opt c1 o with
      | Some n1 when n0 > 1000 && n1 > 1000 ->
          let r = float_of_int n0 /. float_of_int n1 in
          if r > exp eps *. 1.25 || r < exp (-.eps) /. 1.25 then ratio_ok := false
      | _ -> ())
    c0;
  Alcotest.(check bool) "pointwise ratio bounded" true !ratio_ok

let test_alpha_epsilon_inverse () =
  Alcotest.(check (float 1e-9)) "roundtrip" 0.37
    (Mechanism.alpha_of_epsilon
       ~epsilon:(Mechanism.epsilon_of_alpha ~alpha:0.37))

let test_failure_probability () =
  (* For alpha -> 0 the noise is almost surely 0 and P_fail -> 0; for a
     1-entry table, P_fail should be substantial. *)
  Alcotest.(check bool) "tiny alpha" true
    (Mechanism.failure_probability ~alpha:0.01 ~table_entries:100 < 1e-10);
  Alcotest.(check bool) "large alpha small table" true
    (Mechanism.failure_probability ~alpha:0.99 ~table_entries:4 > 0.5)

let test_max_alpha_bisection () =
  let table_entries = 1000 in
  let target = 1e-6 in
  let alpha = Mechanism.max_alpha_for_failure ~table_entries ~target in
  Alcotest.(check bool) "achieves target" true
    (Mechanism.failure_probability ~alpha ~table_entries <= target);
  Alcotest.(check bool) "is maximal" true
    (Mechanism.failure_probability ~alpha:(alpha +. 0.01) ~table_entries > target)

(* ------------------------------------------------------------------ *)
(* Budget                                                              *)
(* ------------------------------------------------------------------ *)

let test_budget_accounting () =
  let b = Budget.create ~epsilon_max:(log 2.0) in
  Alcotest.(check bool) "first query fits" true
    (Result.is_ok (Budget.spend b ~label:"q1" ~epsilon:0.23));
  Alcotest.(check bool) "second query fits" true
    (Result.is_ok (Budget.spend b ~label:"q2" ~epsilon:0.23));
  Alcotest.(check bool) "third query fits" true
    (Result.is_ok (Budget.spend b ~label:"q3" ~epsilon:0.23));
  (* ln 2 = 0.693: exactly three 0.23 queries fit (paper §4.5). *)
  Alcotest.(check bool) "fourth query rejected" true
    (Result.is_error (Budget.spend b ~label:"q4" ~epsilon:0.23));
  Alcotest.(check int) "ledger" 3 (List.length (Budget.ledger b))

let test_budget_rejection_does_not_charge () =
  let b = Budget.create ~epsilon_max:1.0 in
  ignore (Budget.spend b ~label:"a" ~epsilon:0.9);
  ignore (Budget.spend b ~label:"too-big" ~epsilon:0.5);
  Alcotest.(check (float 1e-9)) "spent unchanged" 0.9 (Budget.spent b)

let test_budget_replenish () =
  let b = Budget.create ~epsilon_max:1.0 in
  ignore (Budget.spend b ~label:"a" ~epsilon:0.8);
  Budget.replenish b;
  Alcotest.(check (float 1e-9)) "reset" 1.0 (Budget.remaining b);
  Alcotest.(check int) "ledger cleared" 0 (List.length (Budget.ledger b))

let test_budget_bad_params () =
  Alcotest.check_raises "bad max" (Invalid_argument "Budget.create: epsilon_max <= 0")
    (fun () -> ignore (Budget.create ~epsilon_max:0.0));
  let b = Budget.create ~epsilon_max:1.0 in
  Alcotest.check_raises "bad spend" (Invalid_argument "Budget.spend: epsilon <= 0")
    (fun () -> ignore (Budget.spend b ~label:"x" ~epsilon:(-1.0)))

(* ------------------------------------------------------------------ *)
(* Noise circuit                                                       *)
(* ------------------------------------------------------------------ *)

(* A one-input vertex program whose combine circuit is the aggregation
   block's noising step: the exact aggregate in, the released value out. *)
let agg_bits = 16

let noise_program ~epsilon ~sensitivity ~noise_max_magnitude =
  {
    Dstress_runtime.Vertex_program.name = "noise-gate";
    state_bits = agg_bits;
    message_bits = 1;
    iterations = 1;
    sensitivity;
    epsilon;
    noise_max_magnitude;
    agg_bits;
    build_update = (fun _ ~state ~incoming -> (state, incoming));
    build_aggregand = (fun _ ~state -> state);
  }

let noised_combine ?(noised = true) ~epsilon ~sensitivity ~noise_max_magnitude () =
  Dstress_runtime.Vertex_program.combine_circuit
    (noise_program ~epsilon ~sensitivity ~noise_max_magnitude)
    ~count:1 ~noised

let eval_word c inputs = Bitvec.to_int (Bitvec.of_bool_array (Circuit.eval c inputs))
let bits_of ~bits v = Array.init bits (fun i -> (v lsr i) land 1 = 1)

(* The distribution gate: released minus exact, through the noised
   combine circuit the aggregation block evaluates, against the
   two-sided geometric (1-a)/(1+a) a^|k|. The circuit's noise inputs
   are uniform, as the XOR of the k+1 members' [agg:noise] draws is.
   Bins run over -K..K, where K is the last magnitude with an expected
   count of at least 5, and the two outer bins absorb the tails. The
   statistic must stay below the chi-square 0.9999 quantile for its
   degrees of freedom (Wilson-Hilferty). Seed, draw count and threshold
   are fixed. *)
let distribution_draws = 10_000

let chi_square_noise ~epsilon ~sensitivity ~noise_max_magnitude =
  let c = noised_combine ~epsilon ~sensitivity ~noise_max_magnitude () in
  let noise_bits = c.Circuit.num_inputs - agg_bits in
  let alpha = Mechanism.alpha_of_epsilon ~epsilon:(epsilon /. float_of_int sensitivity) in
  let n = distribution_draws in
  let pmf k = (1.0 -. alpha) /. (1.0 +. alpha) *. (alpha ** float_of_int (abs k)) in
  let rec last k = if float_of_int n *. pmf (k + 1) >= 5.0 then last (k + 1) else k in
  let kmax = last 0 in
  let counts = Array.make ((2 * kmax) + 1) 0 in
  let t = Prng.of_int 0xD15 in
  let modulus = 1 lsl agg_bits in
  for _ = 1 to n do
    let exact = Prng.int t modulus in
    let inputs =
      Array.append
        (Array.init agg_bits (fun i -> (exact lsr i) land 1 = 1))
        (Array.init noise_bits (fun _ -> Prng.bool t))
    in
    let released = Bitvec.to_int (Bitvec.of_bool_array (Circuit.eval c inputs)) in
    let d = (released - exact + modulus) mod modulus in
    let d = if d >= modulus / 2 then d - modulus else d in
    let k = max (-kmax) (min kmax d) in
    counts.(k + kmax) <- counts.(k + kmax) + 1
  done;
  let tail = (alpha ** float_of_int (kmax + 1)) /. (1.0 +. alpha) in
  let chi2 = ref 0.0 in
  Array.iteri
    (fun i o ->
      let k = i - kmax in
      let mass = pmf k +. if abs k = kmax then tail else 0.0 in
      let e = float_of_int n *. mass in
      chi2 := !chi2 +. (((float_of_int o -. e) ** 2.0) /. e))
    counts;
  let df = float_of_int (2 * kmax) in
  let z = 3.719 in
  let h = 2.0 /. (9.0 *. df) in
  let threshold = df *. ((1.0 -. h +. (z *. sqrt h)) ** 3.0) in
  (kmax, !chi2, threshold)

let check_distribution ~epsilon ~sensitivity ~noise_max_magnitude ~kmax:want () =
  let kmax, chi2, threshold = chi_square_noise ~epsilon ~sensitivity ~noise_max_magnitude in
  Alcotest.(check int) "bins" want kmax;
  if not (chi2 < threshold) then
    Alcotest.failf "chi-square %.1f >= %.1f (%d degrees of freedom)" chi2 threshold (2 * kmax)

(* serve-en's release (epsilon 1, s = 20), and a steep alpha = 0.5 whose
   bound of 15 cuts the tail. *)
let test_noise_circuit_distribution () =
  check_distribution ~epsilon:1.0 ~sensitivity:20 ~noise_max_magnitude:600 ~kmax:78 ();
  check_distribution ~epsilon:(log 2.0) ~sensitivity:1 ~noise_max_magnitude:15 ~kmax:9 ()

(* The pmf the rounded coin constants imply, convolved exactly: digit j
   of each G is 1 with probability T_j / 2^32. At serve-en's release
   (epsilon 1, s = 20, bound 600, so m = 9) it must sit within L1 1e-9
   of (1-a)/(1+a) a^|k|: the rounding of 18 constants plus the
   conditioned-away tail a^512 = 7.6e-12. *)
let test_noise_circuit_coin_pmf_exact () =
  let alpha = Mechanism.alpha_of_epsilon ~epsilon:(1.0 /. 20.0) in
  let ts = Noise_circuit.coin_thresholds ~alpha ~max_magnitude:600 in
  Alcotest.(check int) "m = 9 digits" 9 (Array.length ts);
  let size = 1 lsl Array.length ts in
  let p_g =
    Array.init size (fun g ->
        let pr = ref 1.0 in
        Array.iteri
          (fun j t ->
            let p1 = float_of_int t /. (2.0 ** 32.0) in
            pr := !pr *. if (g lsr j) land 1 = 1 then p1 else 1.0 -. p1)
          ts;
        !pr)
  in
  let target k = (1.0 -. alpha) /. (1.0 +. alpha) *. (alpha ** float_of_int (abs k)) in
  let l1 = ref 0.0 and covered = ref 0.0 in
  for k = -(size - 1) to size - 1 do
    let pk = ref 0.0 in
    for g = max 0 k to min (size - 1) (size - 1 + k) do
      pk := !pk +. (p_g.(g) *. p_g.(g - k))
    done;
    l1 := !l1 +. abs_float (!pk -. target k);
    covered := !covered +. target k
  done;
  let l1 = !l1 +. (1.0 -. !covered) in
  if not (l1 < 1e-9) then Alcotest.failf "L1 distance %g >= 1e-9" l1

(* The noised combine circuit at serve-en's release parameters, pinned:
   18 coins of at most 31 ANDs, a 10-bit subtraction and the add into
   the 16-bit aggregate. *)
let test_noise_circuit_and_pin () =
  let c = noised_combine ~epsilon:1.0 ~sensitivity:20 ~noise_max_magnitude:600 () in
  Alcotest.(check int) "noise inputs" (18 * 32) (c.Circuit.num_inputs - agg_bits);
  Alcotest.(check int) "ANDs" 566 (Circuit.and_count c);
  Alcotest.(check int) "AND depth" 46 (Circuit.and_depth c)

(* The sampler costs 2m comparisons for m = log2(bound + 1) digits: the
   AND count grows with the number of digits, not with the bound. *)
let test_noise_circuit_gate_count_scales () =
  let ands m =
    let b = Builder.create () in
    let max_magnitude = (1 lsl m) - 1 in
    let value = Word.inputs b ~bits:24 in
    let uniform = Word.inputs b ~bits:(Noise_circuit.input_bits ~max_magnitude) in
    let out = Noise_circuit.add_noise b ~alpha:0.999999 ~max_magnitude ~value ~uniform in
    Circuit.and_count (Builder.finish b ~outputs:out)
  in
  let a4 = ands 4 and a8 = ands 8 and a16 = ands 16 in
  List.iter
    (fun (m, a) ->
      if a > (2 * m * 32) + (2 * 24) then
        Alcotest.failf "bound 2^%d - 1: %d ANDs exceed 2m comparisons and two adds" m a)
    [ (4, a4); (8, a8); (16, a16) ];
  Alcotest.(check bool) "grows with the digits" true (a4 < a8 && a8 < a16);
  Alcotest.(check bool) "4096x the bound, at most 5x the ANDs" true (a16 <= 5 * a4)

(* Constant noise inputs make every coin pair equal: all-zero words are
   below every nonzero threshold, all-ones words below none. So G1 = G2
   and the release is exact. Engine.run_plaintext feeds all zeros, and
   the plaintext oracles rely on it. *)
let test_noise_circuit_extremes () =
  let t = Prng.of_int 0x2E0 in
  List.iter
    (fun (epsilon, sensitivity, noise_max_magnitude) ->
      let c = noised_combine ~epsilon ~sensitivity ~noise_max_magnitude () in
      for i = 1 to 20 do
        let exact = Prng.int t (1 lsl agg_bits) in
        let noise = Array.make (c.Circuit.num_inputs - agg_bits) (i mod 2 = 0) in
        Alcotest.(check int) "released = exact" exact
          (eval_word c (Array.append (bits_of ~bits:agg_bits exact) noise))
      done)
    [ (1.0, 20, 600); (0.23, 20, 600); (log 2.0, 1, 15); (50.0, 1, 30) ];
  let module Engine = Dstress_runtime.Engine in
  let module Graph = Dstress_runtime.Graph in
  let graph = Graph.create ~n:3 ~edges:[ (0, 1); (1, 2) ] in
  let p = noise_program ~epsilon:1.0 ~sensitivity:20 ~noise_max_magnitude:600 in
  let states = Array.map (Bitvec.of_int ~bits:agg_bits) [| 300; 5; 7000 |] in
  Alcotest.(check int) "run_plaintext releases the exact sum" 7305
    (Engine.run_plaintext p ~degree_bound:(Graph.max_degree graph) ~graph ~initial_states:states)

(* At epsilon 50 and s = 1 every coin probability rounds to 0, so every
   coin folds to constant 0 and the noising step adds no gate: the engine
   tests that compare MPC outputs with plaintext sums rely on it. *)
let test_noise_circuit_epsilon_50_folds () =
  let alpha = Mechanism.alpha_of_epsilon ~epsilon:50.0 in
  List.iter
    (fun max_magnitude ->
      Alcotest.(check (list int)) "coin constants" []
        (List.filter (( <> ) 0)
           (Array.to_list (Noise_circuit.coin_thresholds ~alpha ~max_magnitude)));
      let noised = noised_combine ~epsilon:50.0 ~sensitivity:1 ~noise_max_magnitude:max_magnitude () in
      let plain =
        noised_combine ~noised:false ~epsilon:50.0 ~sensitivity:1
          ~noise_max_magnitude:max_magnitude ()
      in
      Alcotest.(check int) "no AND added" (Circuit.and_count plain) (Circuit.and_count noised);
      let t = Prng.of_int max_magnitude in
      for _ = 1 to 20 do
        let exact = Prng.int t (1 lsl agg_bits) in
        let noise = Array.init (noised.Circuit.num_inputs - agg_bits) (fun _ -> Prng.bool t) in
        Alcotest.(check int) "released = exact" exact
          (eval_word noised (Array.append (bits_of ~bits:agg_bits exact) noise))
      done)
    [ 2; 4; 30; 600 ]

let test_noise_circuit_add_noise () =
  (* A value passes through unchanged on all-zero noise inputs. *)
  let b = Builder.create () in
  let max_magnitude = 7 in
  let value = Word.inputs b ~bits:10 in
  let uniform = Word.inputs b ~bits:(Noise_circuit.input_bits ~max_magnitude) in
  let noised = Noise_circuit.add_noise b ~alpha:0.5 ~max_magnitude ~value ~uniform in
  let c = Builder.finish b ~outputs:noised in
  let inputs =
    Array.append (bits_of ~bits:10 300) (Array.make (Noise_circuit.input_bits ~max_magnitude) false)
  in
  Alcotest.(check int) "zero noise passthrough" 300 (eval_word c inputs)

let test_noise_circuit_bad_params () =
  Alcotest.check_raises "bad alpha" (Invalid_argument "Noise_circuit: alpha out of (0,1)")
    (fun () -> ignore (Noise_circuit.coin_thresholds ~alpha:1.5 ~max_magnitude:4));
  Alcotest.check_raises "bad bound" (Invalid_argument "Noise_circuit: max_magnitude < 1")
    (fun () -> ignore (Noise_circuit.coin_thresholds ~alpha:0.5 ~max_magnitude:0));
  let b = Builder.create () in
  let value = Word.inputs b ~bits:4 in
  Alcotest.check_raises "narrow value"
    (Invalid_argument "Noise_circuit.add_noise: value too narrow for max_magnitude") (fun () ->
      ignore
        (Noise_circuit.add_noise b ~alpha:0.5 ~max_magnitude:15 ~value
           ~uniform:(Word.inputs b ~bits:(Noise_circuit.input_bits ~max_magnitude:15))))

let () =
  Alcotest.run "dp"
    [
      ( "laplace",
        [
          Alcotest.test_case "moments" `Quick test_laplace_moments;
          Alcotest.test_case "symmetric" `Quick test_laplace_symmetric;
          Alcotest.test_case "rejects bad scale" `Quick test_laplace_rejects_bad_scale;
          Alcotest.test_case "mechanism centers" `Quick test_laplace_mechanism_centers;
        ] );
      ( "geometric",
        [
          Alcotest.test_case "one-sided pmf" `Quick test_geometric_one_sided_pmf;
          Alcotest.test_case "two-sided pmf" `Quick test_geometric_two_sided_symmetric_pmf;
          Alcotest.test_case "transfer noise even" `Quick test_transfer_noise_is_even;
          Alcotest.test_case "dp ratio" `Slow test_geometric_mechanism_dp_ratio;
          Alcotest.test_case "alpha/epsilon inverse" `Quick test_alpha_epsilon_inverse;
          Alcotest.test_case "failure probability" `Quick test_failure_probability;
          Alcotest.test_case "max alpha bisection" `Quick test_max_alpha_bisection;
        ] );
      ( "budget",
        [
          Alcotest.test_case "accounting" `Quick test_budget_accounting;
          Alcotest.test_case "rejection free" `Quick test_budget_rejection_does_not_charge;
          Alcotest.test_case "replenish" `Quick test_budget_replenish;
          Alcotest.test_case "bad params" `Quick test_budget_bad_params;
        ] );
      ( "noise-circuit",
        [
          Alcotest.test_case "coin pmf exact" `Quick test_noise_circuit_coin_pmf_exact;
          Alcotest.test_case "extremes" `Quick test_noise_circuit_extremes;
          Alcotest.test_case "distribution" `Quick test_noise_circuit_distribution;
          Alcotest.test_case "add noise" `Quick test_noise_circuit_add_noise;
          Alcotest.test_case "bad params" `Quick test_noise_circuit_bad_params;
          Alcotest.test_case "gate count scales" `Quick test_noise_circuit_gate_count_scales;
          Alcotest.test_case "AND pin" `Quick test_noise_circuit_and_pin;
          Alcotest.test_case "epsilon 50 folds" `Quick test_noise_circuit_epsilon_50_folds;
        ] );
    ]
