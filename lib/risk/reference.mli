(** Cleartext reference implementations of the two systemic-risk models
    (§4.2, §4.3), operating on floating-point balance sheets.

    These are the semantic oracles: the circuit-based vertex programs in
    {!En_program} and {!Egj_program} must agree with them up to
    fixed-point quantization, and the DStress engine must agree with the
    programs up to the released DP noise. They are also what the
    Appendix-C convergence study runs. *)

(** An Eisenberg–Noe economy: banks hold cash and owe each other debts. *)
type en_instance = {
  en_n : int;
  cash : float array;
  debts : (int * int * float) list;  (** (debtor, creditor, amount) *)
}

(** An Elliott–Golub–Jackson economy: banks hold primitive assets and
    equity shares of each other, fail below a threshold, and then suffer
    an extra penalty. *)
type egj_instance = {
  egj_n : int;
  base_assets : float array;
  orig_val : float array;  (** initial valuation of each bank *)
  threshold : float array;
  penalty : float array;
  holdings : (int * int * float) list;
      (** (holder, issuer, fraction): holder owns that fraction of issuer *)
}

type en_result = {
  prorate : float array;  (** payment fraction per bank, in [0,1] *)
  liquid : float array;
  en_tds : float;  (** total dollar shortfall *)
  en_rounds_to_converge : int;  (** first round with every change < 1e-9 *)
}

val eisenberg_noe : ?iterations:int -> en_instance -> en_result
(** Fixpoint iteration of Figure 2(a). Default iterations: [en_n] (the
    model provably converges within n rounds). *)

type egj_result = {
  value : float array;
  failed : bool array;
  egj_tds : float;
  egj_rounds_to_converge : int;
  monotone : bool;  (** valuations never increased across rounds *)
}

val elliott_golub_jackson : ?iterations:int -> egj_instance -> egj_result
(** Fixpoint iteration of Figure 2(b), with the discontinuous failure
    penalty. Converges monotonically from above (Hemenway–Khanna). *)

val en_total_debt : en_instance -> float array
val en_validate : en_instance -> unit
(** Raises [Invalid_argument] on malformed instances (negative amounts,
    out-of-range banks, duplicate debts). *)

val egj_validate : egj_instance -> unit
