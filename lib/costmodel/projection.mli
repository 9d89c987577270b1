(** Scalability projection (Figure 6): estimating end-to-end cost for
    network sizes we cannot run directly, from microbenchmark-calibrated
    unit costs — the same methodology as §5.5 of the paper ("due to our
    limited budget ... we estimate the cost using results from our
    microbenchmarks").

    The model (documented here because the paper does not publish its
    exact extrapolation formula; EXPERIMENTS.md discusses the deviation):

    - {b computation}: each node belongs to ~k+1 blocks (random
      assignment puts every node in its own block plus k others on
      average) and, conservatively, cannot overlap their MPC evaluations
      (§5.5). A block evaluation's per-node wall-clock is the AND count
      times the per-AND OT cost times the 2k sessions each party serves.
      Per iteration: [(k+1) * 2k * ands * ot_unit].
    - {b communication}: a node's own D edges transfer serially,
      [D * transfer_wall(k)] per iteration; transfers of different edges
      across the network proceed in parallel.
    - {b aggregation}: a two-level tree of degree [tree_fanout]; leaf
      groups aggregate in parallel, so two block evaluations' worth of
      wall-clock plus the root noising.
    - {b iterations}: [I = ceil(log2 N)] unless given (Appendix C).

    Traffic per node adds the per-role §5.3 transfer bytes and the
    per-party MPC bytes across block memberships. *)

type units = {
  ot_seconds_per_and_per_pair : float;
      (** seconds of combined sender+receiver work per AND gate per
          ordered party pair (measured) *)
  mpc_bytes_per_and_per_pair : float;
      (** wire bytes per AND gate per ordered pair (~kappa/8 + 2/8) *)
  exp_seconds : float;  (** one modular exponentiation in the target group *)
  element_bytes : int;  (** serialized group element *)
}

val measure_units : Dstress_crypto.Group.t -> seed:string -> units
(** Calibrate from short runs: a batch of Crypto-mode OT-extension ANDs
    and a timed batch of exponentiations. *)

type params = {
  n : int;
  d : int;  (** degree bound *)
  k : int;
  l : int;  (** message bits *)
  iterations : int option;  (** default ceil(log2 n) *)
  tree_fanout : int;  (** aggregation tree degree (paper: 100) *)
}

val paper_scale : params
(** N = 1750, D = 100, k = 19, L = 16, two-level tree of degree 100. *)

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
  update_ands : int;  (** AND gates in the Eisenberg–Noe update circuit *)
}

val project : units -> params -> projection
(** Eisenberg–Noe end-to-end estimate. *)

val update_ands : l:int -> d:int -> int
(** Exact AND-gate count of the Eisenberg–Noe update circuit at the given
    shape (memoized). *)

val transfer_wall_seconds : units -> k:int -> l:int -> float
(** End-to-end wall-clock of one §3.5 transfer: dominated by the (k+1)
    senders' multi-recipient encryptions (parallel across senders), the
    relay's noise encryption and the recipients' decryptions. *)

val pp : Format.formatter -> projection -> unit
