module Prng = Dstress_util.Prng

let laplace prng ~scale =
  if scale <= 0.0 then invalid_arg "Mechanism.laplace: scale <= 0";
  (* Inverse-CDF: U uniform on (-1/2, 1/2); X = -scale * sgn(U) * ln(1 - 2|U|). *)
  let u = Prng.float prng -. 0.5 in
  let sign = if u < 0.0 then -1.0 else 1.0 in
  let magnitude = -.scale *. log (1.0 -. (2.0 *. abs_float u)) in
  sign *. magnitude

let laplace_mechanism prng ~sensitivity ~epsilon v =
  if sensitivity <= 0.0 || epsilon <= 0.0 then
    invalid_arg "Mechanism.laplace_mechanism: nonpositive parameter";
  v +. laplace prng ~scale:(sensitivity /. epsilon)

let geometric_one_sided prng ~alpha =
  if alpha <= 0.0 || alpha >= 1.0 then
    invalid_arg "Mechanism.geometric_one_sided: alpha out of (0,1)";
  (* Inversion: k = floor(ln U / ln alpha) has P(k) = (1-a) a^k. Guard
     against U = 0. *)
  let rec draw () =
    let u = Prng.float prng in
    if u = 0.0 then draw () else int_of_float (floor (log u /. log alpha))
  in
  draw ()

let geometric_two_sided prng ~alpha =
  geometric_one_sided prng ~alpha - geometric_one_sided prng ~alpha

let geometric_mechanism prng ~sensitivity ~epsilon v =
  if sensitivity <= 0 || epsilon <= 0.0 then
    invalid_arg "Mechanism.geometric_mechanism: nonpositive parameter";
  let alpha = exp (-.epsilon /. float_of_int sensitivity) in
  v + geometric_two_sided prng ~alpha

let transfer_noise prng ~alpha ~delta =
  if delta <= 0 then invalid_arg "Mechanism.transfer_noise: delta <= 0";
  let alpha' = alpha ** (2.0 /. float_of_int delta) in
  2 * geometric_two_sided prng ~alpha:alpha'

let alpha_of_epsilon ~epsilon = exp (-.epsilon)
let epsilon_of_alpha ~alpha = -.log alpha

let failure_probability ~alpha ~table_entries =
  let half = float_of_int table_entries /. 2.0 in
  let p = ((2.0 *. (alpha ** half)) +. alpha -. 1.0) /. (1.0 +. alpha) in
  if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p

let max_alpha_for_failure ~table_entries ~target =
  if target <= 0.0 || target >= 1.0 then
    invalid_arg "Mechanism.max_alpha_for_failure: target out of (0,1)";
  (* failure_probability is increasing in alpha; bisect on [0, 1). *)
  let rec bisect lo hi iters =
    if iters = 0 then lo
    else begin
      let mid = (lo +. hi) /. 2.0 in
      if failure_probability ~alpha:mid ~table_entries <= target then
        bisect mid hi (iters - 1)
      else bisect lo mid (iters - 1)
    end
  in
  bisect 0.0 1.0 200
