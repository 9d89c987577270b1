module Builder = Dstress_circuit.Builder
module Word = Dstress_circuit.Word
module Bitvec = Dstress_util.Bitvec
module Graph = Dstress_runtime.Graph
module Vertex_program = Dstress_runtime.Vertex_program

let bits_for v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  max 1 (go v 0)

let state_words ~degree = 3 + (2 * degree)
let state_bits ~l ~degree = state_words ~degree * l
let agg_bits ~l = l + 14

(* State word offsets. *)
let off_cash = 0
let off_total = 1
let off_deficit = 2
let off_debt ~s = 3 + s
let off_credit ~degree ~s = 3 + degree + s

let make ?(epsilon = 0.23) ?(sensitivity = 20) ?(noise_max = 600) ~l ~degree ~iterations () =
  if l < 4 || l > 20 then invalid_arg "En_program.make: l out of [4,20]";
  if degree < 1 then invalid_arg "En_program.make: degree < 1";
  let sb = state_bits ~l ~degree in
  let f = l in
  (* width enough for cash + D credits *)
  let wide = l + bits_for (degree + 1) in
  let build_update b ~state ~incoming =
    let word off = Array.sub state (off * l) l in
    let cash = word off_cash and total = word off_total in
    let debts = Array.init degree (fun s -> word (off_debt ~s)) in
    let credits = Array.init degree (fun s -> word (off_credit ~degree ~s)) in
    (* liquid = cash + sum_s (credit_s - shortfall_s), each term >= 0. *)
    let nets =
      List.init degree (fun s -> Word.saturating_sub b credits.(s) incoming.(s))
    in
    let liquid = Word.sum b ~bits:wide (cash :: nets) in
    let deficit_w = Word.saturating_sub b (Word.zero_extend b total ~bits:wide) liquid in
    (* deficit <= totalDebt < 2^l, so the truncation is exact. *)
    let deficit = Word.truncate deficit_w ~bits:l in
    (* fraction = deficit * 2^f / totalDebt, in [0, 2^f]: f+1 bits. *)
    let dividend =
      Word.shift_left_const b (Word.zero_extend b deficit ~bits:(l + f)) f
    in
    let quotient, _ = Word.divmod b dividend total in
    let fraction = Word.truncate quotient ~bits:(f + 1) in
    let zero_frac = Word.constant b ~bits:(f + 1) 0 in
    let fraction = Word.mux b (Word.is_zero b total) zero_frac fraction in
    (* shortfall message to creditor s: debt_s * fraction / 2^f <= debt_s. *)
    let outgoing =
      Array.map
        (fun debt ->
          Word.truncate
            (Word.shift_right_const b (Word.mul b debt fraction) f)
            ~bits:l)
        debts
    in
    let new_state =
      Array.concat
        ([ cash; total; deficit ] @ Array.to_list debts @ Array.to_list credits)
    in
    (new_state, outgoing)
  in
  let build_aggregand b ~state =
    Word.zero_extend b (Array.sub state (off_deficit * l) l) ~bits:(agg_bits ~l)
  in
  {
    Vertex_program.name = "eisenberg-noe";
    state_bits = sb;
    message_bits = l;
    iterations;
    sensitivity;
    epsilon;
    noise_max_magnitude = noise_max;
    agg_bits = agg_bits ~l;
    build_update;
    build_aggregand;
  }

let graph_of_instance inst =
  Reference.en_validate inst;
  let edges =
    List.sort_uniq compare (List.map (fun (i, j, _) -> (i, j)) inst.Reference.debts)
  in
  Graph.create ~n:inst.Reference.en_n ~edges

let encode inst ~graph ~l ~degree ~scale =
  Reference.en_validate inst;
  let n = inst.Reference.en_n in
  let cap = (1 lsl l) - 1 in
  let exception Unfit of string in
  let to_units what v =
    let u = int_of_float (Float.round (v /. scale)) in
    if u < 0 || u > cap then
      raise (Unfit (Printf.sprintf "%s = %g does not fit %d bits" what v l));
    u
  in
  let total_debt = Reference.en_total_debt inst in
  let debt_amount = Hashtbl.create 64 in
  List.iter (fun (i, j, a) -> Hashtbl.replace debt_amount (i, j) a) inst.Reference.debts;
  match
    Array.init n (fun i ->
        let words = Array.make (state_words ~degree) 0 in
        words.(off_cash) <- to_units "cash" inst.Reference.cash.(i);
        words.(off_total) <- to_units "total debt" total_debt.(i);
        words.(off_deficit) <- 0;
        List.iteri
          (fun s j ->
            words.(off_debt ~s) <-
              to_units "debt" (Option.value ~default:0.0 (Hashtbl.find_opt debt_amount (i, j))))
          (Graph.out_neighbors graph i);
        List.iteri
          (fun s j ->
            words.(off_credit ~degree ~s) <-
              to_units "credit" (Option.value ~default:0.0 (Hashtbl.find_opt debt_amount (j, i))))
          (Graph.in_neighbors graph i);
        Bitvec.concat (Array.to_list (Array.map (fun w -> Bitvec.of_int ~bits:l w) words)))
  with
  | states -> Ok states
  | exception Unfit m -> Error m

let encode_instance inst ~graph ~l ~degree ~scale =
  match encode inst ~graph ~l ~degree ~scale with
  | Ok states -> states
  | Error m -> invalid_arg ("En_program.encode_instance: " ^ m)

let decode_output ~scale units = float_of_int units *. scale
