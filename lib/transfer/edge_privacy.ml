module Mechanism = Dstress_dp.Mechanism

type config = {
  years : int;
  runs_per_year : int;
  iterations : int;
  nodes : int;
  degree_bound : int;
  bits : int;
  k : int;
}

let paper_example =
  { years = 10; runs_per_year = 3; iterations = 11; nodes = 1750; degree_bound = 100;
    bits = 16; k = 19 }

let sensitivity cfg = cfg.k + 1

let total_transfers cfg =
  float_of_int cfg.years
  *. float_of_int cfg.runs_per_year
  *. float_of_int cfg.iterations
  *. float_of_int cfg.nodes
  *. float_of_int cfg.degree_bound
  *. float_of_int cfg.bits
  *. (float_of_int (cfg.k + 1) ** 2.0)

let lookup_table_entries ~ram_bytes ~ciphertext_bits =
  ram_bytes *. 8.0 /. float_of_int ciphertext_bits

(* Inequality (1): P_fail(alpha, N_l) <= 1 / N_q, solved for alpha by
   bisection on the monotone failure probability. The magnitudes here are
   far beyond native ints, so the computation runs in log space. *)
let max_alpha cfg ~table_entries =
  let n_q = total_transfers cfg in
  let target = 1.0 /. n_q in
  (* P_fail ~= 2 alpha^(N_l/2) for alpha near 1 (the additive alpha-1 term
     vanishes); solve exactly with bisection on log P_fail. *)
  let log_pfail alpha =
    let half = table_entries /. 2.0 in
    (* log (2 a^half + a - 1) - log (1 + a); compute the first term
       stably: for a < 1 the a-1 term only reduces failure, so bounding
       with 2 a^half is safe and matches the paper's arithmetic. *)
    (log 2.0 +. (half *. log alpha)) -. log (1.0 +. alpha)
  in
  let rec bisect lo hi iters =
    if iters = 0 then lo
    else begin
      let mid = (lo +. hi) /. 2.0 in
      if log_pfail mid <= log target then bisect mid hi (iters - 1) else bisect lo mid (iters - 1)
    end
  in
  bisect 0.0 1.0 200

let per_transfer_epsilon ~alpha = Mechanism.epsilon_of_alpha ~alpha

let observed_per_transfer ~k ~bits =
  if k < 1 || bits < 1 then invalid_arg "Edge_privacy.observed_per_transfer: bad parameters";
  k * bits

let retry_epsilon ~alpha ~k ~bits ~retries =
  if retries < 0 then invalid_arg "Edge_privacy.retry_epsilon: retries < 0";
  float_of_int (retries * observed_per_transfer ~k ~bits) *. per_transfer_epsilon ~alpha

let per_iteration_epsilon cfg ~alpha =
  float_of_int cfg.k *. float_of_int (cfg.k + 1) *. float_of_int cfg.bits
  *. per_transfer_epsilon ~alpha

let yearly_epsilon cfg ~alpha =
  float_of_int (cfg.runs_per_year * cfg.iterations) *. per_iteration_epsilon cfg ~alpha

type report = {
  cfg : config;
  delta : int;
  n_q : float;
  n_l : float;
  alpha : float;
  eps_per_transfer : float;
  eps_per_iteration : float;
  eps_per_year : float;
}

let analyze cfg =
  let n_l =
    lookup_table_entries ~ram_bytes:(8.0 *. 1024.0 *. 1024.0 *. 1024.0) ~ciphertext_bits:384
  in
  let n_q = total_transfers cfg in
  let alpha = max_alpha cfg ~table_entries:n_l in
  {
    cfg;
    delta = sensitivity cfg;
    n_q;
    n_l;
    alpha;
    eps_per_transfer = per_transfer_epsilon ~alpha;
    eps_per_iteration = per_iteration_epsilon cfg ~alpha;
    eps_per_year = yearly_epsilon cfg ~alpha;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>edge-privacy (Appendix B):@,\
     \  Delta            = %d@,\
     \  N_q (transfers)  = %.3g@,\
     \  N_l (table)      = %.3g entries@,\
     \  alpha_max        = %.9f@,\
     \  eps / transfer   = %.3g@,\
     \  eps / iteration  = %.4f@,\
     \  eps / year       = %.4f@]"
    r.delta r.n_q r.n_l r.alpha r.eps_per_transfer r.eps_per_iteration r.eps_per_year
