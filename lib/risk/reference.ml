type en_instance = {
  en_n : int;
  cash : float array;
  debts : (int * int * float) list;
}

type egj_instance = {
  egj_n : int;
  base_assets : float array;
  orig_val : float array;
  threshold : float array;
  penalty : float array;
  holdings : (int * int * float) list;
}

type en_result = {
  prorate : float array;
  liquid : float array;
  en_tds : float;
  en_rounds_to_converge : int;
}

type egj_result = {
  value : float array;
  failed : bool array;
  egj_tds : float;
  egj_rounds_to_converge : int;
  monotone : bool;
}

let en_validate inst =
  if Array.length inst.cash <> inst.en_n then invalid_arg "Reference.en: cash length";
  Array.iter (fun c -> if c < 0.0 then invalid_arg "Reference.en: negative cash") inst.cash;
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (i, j, a) ->
      if i < 0 || i >= inst.en_n || j < 0 || j >= inst.en_n then
        invalid_arg "Reference.en: bank out of range";
      if i = j then invalid_arg "Reference.en: self-debt";
      if a < 0.0 then invalid_arg "Reference.en: negative debt";
      if Hashtbl.mem seen (i, j) then invalid_arg "Reference.en: duplicate debt";
      Hashtbl.replace seen (i, j) ())
    inst.debts

let en_total_debt inst =
  let total = Array.make inst.en_n 0.0 in
  List.iter (fun (i, _, a) -> total.(i) <- total.(i) +. a) inst.debts;
  total

(* A round in which no value moves by this much has converged. *)
let tolerance = 1e-9

(* Figure 2(a): iterate shortfall propagation. Each round, every bank
   receives the unpaid fraction of each debt owed to it, recomputes its
   liquidity, and prorates its own payments if insolvent. *)
let eisenberg_noe ?iterations inst =
  en_validate inst;
  let n = inst.en_n in
  let iterations = match iterations with Some i -> i | None -> n in
  let total_debt = en_total_debt inst in
  let prorate = Array.make n 1.0 in
  let liquid = Array.make n 0.0 in
  let converged_at = ref max_int in
  for round = 1 to iterations do
    (* Incoming payments under current prorate factors. *)
    Array.blit inst.cash 0 liquid 0 n;
    List.iter (fun (i, j, a) -> liquid.(j) <- liquid.(j) +. (a *. prorate.(i))) inst.debts;
    let max_change = ref 0.0 in
    for i = 0 to n - 1 do
      let fresh =
        if total_debt.(i) > 0.0 && liquid.(i) < total_debt.(i) then
          liquid.(i) /. total_debt.(i)
        else 1.0
      in
      max_change := Float.max !max_change (abs_float (fresh -. prorate.(i)));
      prorate.(i) <- fresh
    done;
    if !max_change < tolerance && !converged_at = max_int then converged_at := round
  done;
  let tds = ref 0.0 in
  for i = 0 to n - 1 do
    tds := !tds +. (total_debt.(i) *. (1.0 -. prorate.(i)))
  done;
  {
    prorate;
    liquid;
    en_tds = !tds;
    en_rounds_to_converge = (if !converged_at = max_int then iterations else !converged_at);
  }

let egj_validate inst =
  let check name arr =
    if Array.length arr <> inst.egj_n then invalid_arg ("Reference.egj: " ^ name ^ " length");
    Array.iter (fun v -> if v < 0.0 then invalid_arg ("Reference.egj: negative " ^ name)) arr
  in
  check "base" inst.base_assets;
  check "orig_val" inst.orig_val;
  check "threshold" inst.threshold;
  check "penalty" inst.penalty;
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (h, iss, f) ->
      if h < 0 || h >= inst.egj_n || iss < 0 || iss >= inst.egj_n then
        invalid_arg "Reference.egj: bank out of range";
      if h = iss then invalid_arg "Reference.egj: self-holding";
      if f < 0.0 || f > 1.0 then invalid_arg "Reference.egj: share out of [0,1]";
      if Hashtbl.mem seen (h, iss) then invalid_arg "Reference.egj: duplicate holding";
      Hashtbl.replace seen (h, iss) ())
    inst.holdings

(* Figure 2(b): each bank's value is its base assets plus its equity
   stakes discounted by the issuers' current devaluations, with a penalty
   once the value drops below the failure threshold. *)
let elliott_golub_jackson ?iterations inst =
  egj_validate inst;
  let n = inst.egj_n in
  let iterations = match iterations with Some i -> i | None -> n in
  let discount = Array.make n 0.0 in
  let value = Array.copy inst.orig_val in
  let monotone = ref true in
  let converged_at = ref max_int in
  for round = 1 to iterations do
    let fresh = Array.copy inst.base_assets in
    List.iter
      (fun (h, iss, share) ->
        fresh.(h) <- fresh.(h) +. (share *. (1.0 -. discount.(iss)) *. inst.orig_val.(iss)))
      inst.holdings;
    for i = 0 to n - 1 do
      if fresh.(i) < inst.threshold.(i) then fresh.(i) <- fresh.(i) -. inst.penalty.(i);
      if fresh.(i) < 0.0 then fresh.(i) <- 0.0
    done;
    let max_change = ref 0.0 in
    for i = 0 to n - 1 do
      if fresh.(i) > value.(i) +. 1e-9 then monotone := false;
      max_change := Float.max !max_change (abs_float (fresh.(i) -. value.(i)));
      value.(i) <- fresh.(i);
      discount.(i) <-
        (if inst.orig_val.(i) > 0.0 then
           Float.max 0.0 (1.0 -. (value.(i) /. inst.orig_val.(i)))
         else 0.0)
    done;
    if !max_change < tolerance && !converged_at = max_int then converged_at := round
  done;
  let failed = Array.mapi (fun i v -> v < inst.threshold.(i)) value in
  let tds = ref 0.0 in
  for i = 0 to n - 1 do
    if failed.(i) then tds := !tds +. (inst.threshold.(i) -. value.(i))
  done;
  {
    value;
    failed;
    egj_tds = !tds;
    egj_rounds_to_converge = (if !converged_at = max_int then iterations else !converged_at);
    monotone = !monotone;
  }
