(* §5.5 baseline: systemic risk as one monolithic MPC. We time N x N
   matrix multiplications under GMW for growing N, observe the cubic
   blow-up, and extrapolate to the full banking system — then compare
   against the DStress projection. Both sides run Crypto-mode OT, so they
   share one per-AND cost and the headline ratio ("hours vs years") is
   backend-independent. *)

open Bench_util
module Matmul = Dstress_baseline.Matmul
module Projection = Dstress_costmodel.Projection

let run ~quick () =
  header "Baseline: monolithic-MPC matrix multiplication (§5.5)";
  let sizes = if quick then [ 3; 4; 5 ] else [ 4; 6; 8; 10 ] in
  let bits = 12 and parties = 3 in
  Printf.printf "(N x N matrices of %d-bit entries, %d-party GMW; paper: 1.8 min at N=10,\n" bits parties;
  Printf.printf " 40 min at N=25 in Wysteria, out of memory beyond)\n\n";
  Printf.printf "%8s %12s %12s %14s\n" "N" "ANDs" "time" "total MB";
  let measurements =
    List.map
      (fun n ->
        let m = Matmul.measure grp ~parties ~n ~bits ~seed:("baseline" ^ string_of_int n) in
        emit
          (Bench_result.make_result
             ~params:[ ("n", Json.Int n) ]
             ~wall:
               { Bench_result.median_s = m.Matmul.seconds; min_s = m.Matmul.seconds;
                 p10_s = m.Matmul.seconds; p90_s = m.Matmul.seconds }
             ~counters:
               [
                 ("and_gates", m.Matmul.and_count);
                 ("traffic.total_bytes", m.Matmul.total_bytes);
               ]
             "matmul");
        Printf.printf "%8d %12d %10.2f s %12.2f\n" n m.Matmul.and_count m.Matmul.seconds
          (mb m.Matmul.total_bytes);
        m)
      sizes
  in
  let c = Matmul.fit_cubic measurements in
  Printf.printf "\ncubic fit: time = %.3g * N^3 seconds\n" c;
  let n_banks = 1750 and powers = 11 in
  let naive_seconds = Matmul.extrapolate_seconds ~c ~n:n_banks ~powers in
  Printf.printf "extrapolated: raising a %dx%d matrix to the %dth power takes %.1f years\n"
    n_banks n_banks (powers + 1)
    (Matmul.years naive_seconds);
  (* DStress with the same unit costs. *)
  let units = Projection.measure_units grp ~seed:"baseline-units" in
  let dstress = Projection.project units Projection.paper_scale in
  Printf.printf "DStress projection at the same scale: %.2f hours (toy group, Crypto OT)\n"
    (dstress.Projection.total_seconds /. 3600.0);
  record "extrapolation"
    ~floats:
      [
        ("cubic_fit_c", c);
        ("naive_years", Matmul.years naive_seconds);
        ("dstress_hours", dstress.Projection.total_seconds /. 3600.0);
        ("ratio", naive_seconds /. dstress.Projection.total_seconds);
      ];
  Printf.printf "  -> naive MPC / DStress ratio: x%.0f (paper: ~287 years vs ~4.8 h, x%.0f)\n"
    (naive_seconds /. dstress.Projection.total_seconds)
    (287.0 *. 365.25 *. 24.0 /. 4.8)
