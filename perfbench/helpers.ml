(* Pure helpers of the benchmark: order statistics, the tail-percentile
   rule, the seeded query-seed stream, metric-name validation and the
   output oracle. [self_test] checks each of them; every benchmark run
   calls it before measuring anything. *)

module Prng = Dstress_util.Prng
module Prg = Dstress_crypto.Prg

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Median of a sample (mean of the two middle values when the count is
   even); 0 for an empty one. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let rank n p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(min n (rank n p) - 1)

(* The tail rule: report the highest percentile of this ladder that still
   has at least ten samples strictly beyond its rank. [None] when even the
   median has fewer than ten beyond it (fewer than 20 samples). *)
let tail_ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let tail_pct n = List.find_opt (fun p -> n - rank n p >= 10) tail_ladder

(* [(percentile, value)], falling back to [(0, max)] when no percentile
   of the ladder qualifies. *)
let tail xs =
  match tail_pct (List.length xs) with
  | Some p -> (p, percentile xs p)
  | None -> (0.0, percentile xs 100.0)

(* The query-seed stream of a workload: an infinite sequence of network
   seeds keyed by the workload name and the benchmark's --seed, filtered
   by [accept] (the workload's fixed network shape). The program under
   test only ever receives the seeds this yields. *)
let seed_stream ~label ~seed ~accept =
  let prng = Prng.create (Prg.seed64 (Printf.sprintf "perfbench:%s:%d" label seed)) in
  let rec next () =
    let s = 1 + Prng.int prng 0x3fffffff in
    if accept s then s else next ()
  in
  next

let take n next = List.init n (fun _ -> next ())

let valid_metric_name s =
  let ok = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false in
  let alnum = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false in
  String.length s > 0 && String.length s <= 64 && alnum s.[0] && String.for_all ok s

(* The output oracle: the released aggregate minus the plaintext
   reference is the DP noise, which the in-circuit sampler truncates at
   [noise_max]. Differences are taken modulo the aggregate's width, the
   way the circuit adds noise. *)
let within_noise ~agg_bits ~noise_max ~expected ~output =
  let m = 1 lsl agg_bits in
  let d = (((output - expected) mod m) + m) mod m in
  let d = if d >= m / 2 then d - m else d in
  abs d <= noise_max

let self_test () =
  let fails = ref [] in
  let check name ok = if not ok then fails := name :: !fails in
  check "median odd" (median [ 3.0; 1.0; 2.0 ] = 2.0);
  check "median even" (median [ 4.0; 1.0; 2.0; 3.0 ] = 2.5);
  check "tail none below 20" (tail_pct 19 = None);
  check "tail p50 at 20" (tail_pct 20 = Some 50.0);
  check "tail p90 at 100" (tail_pct 100 = Some 90.0);
  check "tail p99 at 1000" (tail_pct 1000 = Some 99.0);
  let xs = List.init 200 (fun i -> float_of_int (i + 1)) in
  let p, v = tail xs in
  let beyond = List.length (List.filter (fun x -> x > v) xs) in
  check "tail keeps ten beyond" (p = 95.0 && beyond >= 10);
  check "tail fallback is max" (tail [ 1.0; 5.0; 2.0 ] = (0.0, 5.0));
  let accept s = s mod 3 = 0 in
  let a = take 16 (seed_stream ~label:"w" ~seed:7 ~accept) in
  let b = take 16 (seed_stream ~label:"w" ~seed:7 ~accept) in
  let c = take 16 (seed_stream ~label:"w" ~seed:8 ~accept) in
  check "seed stream replays" (a = b);
  check "seed stream keyed by seed" (a <> c);
  check "seed stream filtered" (List.for_all accept a);
  check "metric name ok" (valid_metric_name "engine.unattributed_frac");
  check "metric name space" (not (valid_metric_name "bad name"));
  check "metric name slash" (not (valid_metric_name "a/b"));
  check "metric name lead" (not (valid_metric_name ".x"));
  let agg_bits = 16 and noise_max = 600 in
  let ok o = within_noise ~agg_bits ~noise_max ~expected:1000 ~output:o in
  check "oracle exact" (ok 1000);
  check "oracle at bound" (ok 1600 && ok 400);
  check "oracle rejects perturbed" ((not (ok 1601)) && not (ok (1000 + 5000)));
  check "oracle wraps" (within_noise ~agg_bits ~noise_max ~expected:0 ~output:(-5));
  List.rev !fails
