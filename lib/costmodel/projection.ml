module Group = Dstress_crypto.Group
module Prg = Dstress_crypto.Prg
module Xfer = Dstress_crypto.Xfer
module Ot_ext = Dstress_crypto.Ot_ext
module Circuit = Dstress_circuit.Circuit
module En_program = Dstress_risk.En_program
module Vertex_program = Dstress_runtime.Vertex_program

type units = {
  ot_seconds_per_and_per_pair : float;
  mpc_bytes_per_and_per_pair : float;
  exp_seconds : float;
  element_bytes : int;
}

let measure_units grp ~seed =
  (* OT unit: run a sizeable extension batch through one Crypto-mode
     session pair, the SHA-based IKNP the paper's stack ran. *)
  let sender_prg = Prg.of_string ("units-s:" ^ seed) in
  let receiver_prg = Prg.of_string ("units-r:" ^ seed) in
  let session = Ot_ext.setup grp (Xfer.create ()) ~sender_prg ~receiver_prg in
  let meter = Xfer.create () in
  let batch = 20000 in
  let pairs = Array.make batch (false, true) in
  let choices = Array.init batch (fun i -> i land 1 = 0) in
  let t0 = Unix.gettimeofday () in
  ignore (Ot_ext.extend_bits session meter ~pairs ~choices);
  let ot_seconds = (Unix.gettimeofday () -. t0) /. float_of_int batch in
  let bytes_per = float_of_int (Xfer.total meter) /. float_of_int batch in
  (* Exponentiation unit. *)
  let prg = Prg.of_string ("units-exp:" ^ seed) in
  let reps = 200 in
  let exps = Array.init reps (fun _ -> Group.random_exponent prg grp) in
  let t1 = Unix.gettimeofday () in
  Array.iter (fun e -> ignore (Group.pow_g grp e)) exps;
  let exp_seconds = (Unix.gettimeofday () -. t1) /. float_of_int reps in
  {
    ot_seconds_per_and_per_pair = ot_seconds;
    mpc_bytes_per_and_per_pair = bytes_per;
    exp_seconds;
    element_bytes = Group.element_bytes grp;
  }

type params = {
  n : int;
  d : int;
  k : int;
  l : int;
  iterations : int option;
  tree_fanout : int;
}

let paper_scale = { n = 1750; d = 100; k = 19; l = 16; iterations = None; tree_fanout = 100 }

type projection = {
  params : params;
  iterations_used : int;
  compute_seconds : float;
  communicate_seconds : float;
  aggregate_seconds : float;
  total_seconds : float;
  mpc_bytes_per_node : float;
  transfer_bytes_per_node : float;
  total_bytes_per_node : float;
  update_ands : int;
}

(* Exact AND counts by building the circuits once per shape; memoized
   because the Fig. 6 sweep evaluates many N at the same D. *)
let update_ands_memo : (int * int, int) Hashtbl.t = Hashtbl.create 16

let update_ands ~l ~d =
  match Hashtbl.find_opt update_ands_memo (l, d) with
  | Some v -> v
  | None ->
      let p = En_program.make ~l ~degree:d ~iterations:1 () in
      let v = Circuit.and_count (Vertex_program.update_circuit p ~degree:d) in
      Hashtbl.replace update_ands_memo (l, d) v;
      v

let agg_ands_memo : (int * int, int) Hashtbl.t = Hashtbl.create 16

let agg_ands ~l ~count =
  match Hashtbl.find_opt agg_ands_memo (l, count) with
  | Some v -> v
  | None ->
      let p = En_program.make ~l ~degree:1 ~iterations:1 () in
      let v = Circuit.and_count (Vertex_program.aggregate_circuit p ~count) in
      Hashtbl.replace agg_ands_memo (l, count) v;
      v

let transfer_wall_seconds u ~k ~l =
  let kp1 = float_of_int (k + 1) and lf = float_of_int l in
  (* Senders encrypt in parallel: one ephemeral plus (k+1)L key
     exponentiations each. The relay then adds noise ((k+1)L + 1 exps,
     the homomorphic multiplications are negligible), the receiver node
     adjusts one ephemeral, and each recipient decrypts its L values
     (parallel across recipients). *)
  let sender = (1.0 +. (kp1 *. lf)) *. u.exp_seconds in
  let relay_noise = (1.0 +. (kp1 *. lf)) *. u.exp_seconds in
  let adjust = u.exp_seconds in
  let decrypt = lf *. u.exp_seconds in
  sender +. relay_noise +. adjust +. decrypt

(* Per-party wall-clock of one block evaluation: each party serves 2k of
   the k(k+1) directional OT sessions, and sender/receiver work per OT is
   roughly balanced. *)
let block_eval_seconds u ~k ~ands =
  2.0 *. float_of_int k *. float_of_int ands *. u.ot_seconds_per_and_per_pair

let project u p =
  let iters =
    match p.iterations with
    | Some i -> i
    | None -> max 1 (int_of_float (ceil (log (float_of_int p.n) /. log 2.0)))
  in
  let kp1 = p.k + 1 in
  let ands = update_ands ~l:p.l ~d:p.d in
  (* Computation: k+1 non-overlapping block memberships per node. *)
  let compute =
    float_of_int iters *. float_of_int kp1 *. block_eval_seconds u ~k:p.k ~ands
  in
  (* Communication: a node's own D edges, serially. *)
  let communicate =
    float_of_int iters *. float_of_int p.d *. transfer_wall_seconds u ~k:p.k ~l:p.l
  in
  (* Aggregation: leaf groups in parallel, then the (noised) root. *)
  let leaf_ands = agg_ands ~l:p.l ~count:(min p.n p.tree_fanout) in
  let root_count = max 1 ((p.n + p.tree_fanout - 1) / p.tree_fanout) in
  let root_ands = agg_ands ~l:p.l ~count:root_count in
  let aggregate =
    block_eval_seconds u ~k:p.k ~ands:leaf_ands
    +. block_eval_seconds u ~k:p.k ~ands:root_ands
  in
  (* --- Traffic ---------------------------------------------------- *)
  let mpc_bytes_per_party ~ands =
    (* A party is an endpoint of 2k of the k(k+1) directional sessions
       and handles every byte of those sessions. *)
    float_of_int ands *. float_of_int (2 * p.k) *. u.mpc_bytes_per_and_per_pair
  in
  let mpc_bytes =
    float_of_int iters *. float_of_int kp1 *. mpc_bytes_per_party ~ands
    +. mpc_bytes_per_party ~ands:leaf_ands
    +. mpc_bytes_per_party ~ands:root_ands
  in
  let eb = float_of_int u.element_bytes in
  let multi c = (float_of_int c +. 1.0) *. eb in
  let kp1f = float_of_int kp1 and df = float_of_int p.d in
  (* Transfer roles per iteration (§5.3): as relay-out i, as relay-in j,
     and as block member (sender and recipient sides) of k+1 blocks. *)
  let as_relay_out = df *. (kp1f +. 1.0) *. multi (kp1 * p.l) in
  let as_relay_in = df *. (multi (kp1 * p.l) +. (kp1f *. multi p.l)) in
  let as_member = kp1f *. df *. (multi (kp1 * p.l) +. multi p.l) in
  let transfer_bytes = float_of_int iters *. (as_relay_out +. as_relay_in +. as_member) in
  {
    params = p;
    iterations_used = iters;
    compute_seconds = compute;
    communicate_seconds = communicate;
    aggregate_seconds = aggregate;
    total_seconds = compute +. communicate +. aggregate;
    mpc_bytes_per_node = mpc_bytes;
    transfer_bytes_per_node = transfer_bytes;
    total_bytes_per_node = mpc_bytes +. transfer_bytes;
    update_ands = ands;
  }

let pp ppf pr =
  let minutes s = s /. 60.0 in
  let mb b = b /. 1048576.0 in
  Format.fprintf ppf
    "@[<v>projection N=%d D=%d k=%d L=%d (I=%d):@,\
     \  compute     %8.1f min@,\
     \  communicate %8.1f min@,\
     \  aggregate   %8.1f min@,\
     \  total       %8.1f min (%.2f h)@,\
     \  traffic/node %7.1f MB (MPC %.1f + transfer %.1f)@]"
    pr.params.n pr.params.d pr.params.k pr.params.l pr.iterations_used
    (minutes pr.compute_seconds) (minutes pr.communicate_seconds)
    (minutes pr.aggregate_seconds) (minutes pr.total_seconds)
    (pr.total_seconds /. 3600.0) (mb pr.total_bytes_per_node)
    (mb pr.mpc_bytes_per_node) (mb pr.transfer_bytes_per_node)
