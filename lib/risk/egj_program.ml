module Builder = Dstress_circuit.Builder
module Word = Dstress_circuit.Word
module Bitvec = Dstress_util.Bitvec
module Graph = Dstress_runtime.Graph
module Vertex_program = Dstress_runtime.Vertex_program

let bits_for v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  max 1 (go v 0)

let state_words ~degree = 5 + degree
let state_bits ~l ~degree = state_words ~degree * l
let agg_bits ~l = l + 14

let off_base = 0
let off_orig = 1
let off_threshold = 2
let off_penalty = 3
let off_value = 4
let off_holding ~s = 5 + s

let make ?(epsilon = 0.23) ?(sensitivity = 20) ?(noise_max = 600) ~l ~frac ~degree
    ~iterations () =
  if l < 4 || l > 20 then invalid_arg "Egj_program.make: l out of [4,20]";
  if frac <= 0 || frac >= l then invalid_arg "Egj_program.make: frac out of (0,l)";
  if degree < 1 then invalid_arg "Egj_program.make: degree < 1";
  let sb = state_bits ~l ~degree in
  let wide = l + bits_for (degree + 1) in
  let build_update b ~state ~incoming =
    let word off = Array.sub state (off * l) l in
    let base = word off_base
    and orig = word off_orig
    and threshold = word off_threshold
    and penalty = word off_penalty in
    let holdings = Array.init degree (fun s -> word (off_holding ~s)) in
    let one = Word.constant b ~bits:l (1 lsl frac) in
    (* Stake value under the issuer's current discount:
       holding * (1 - discount), fixed-point multiply. *)
    let contribs =
      List.init degree (fun s ->
          let factor = Word.saturating_sub b one incoming.(s) in
          Word.truncate
            (Word.shift_right_const b (Word.mul b holdings.(s) factor) frac)
            ~bits:l)
    in
    let value_w = Word.sum b ~bits:wide (base :: contribs) in
    (* Saturate at 2^l - 1 rather than wrap if the generator overshot. *)
    let cap = Word.constant b ~bits:wide ((1 lsl l) - 1) in
    let value_w = Word.min b value_w cap in
    let value = Word.truncate value_w ~bits:l in
    let failing = Word.lt b value threshold in
    let penalized = Word.saturating_sub b value penalty in
    let value' = Word.mux b failing penalized value in
    (* discount = 1 - value/orig, clamped to [0, 1]. *)
    let resize w ~bits =
      if Word.width w >= bits then Word.truncate w ~bits else Word.zero_extend b w ~bits
    in
    let dividend = Word.shift_left_const b (Word.zero_extend b value' ~bits:(l + frac)) frac in
    let ratio_q, _ = Word.divmod b dividend orig in
    (* Clamp at full width first (value may exceed orig), then narrow:
       ratio <= 1.0 fits back into l bits. *)
    let ratio_clamped = Word.min b ratio_q (resize one ~bits:(Word.width ratio_q)) in
    let discount = Word.saturating_sub b one (resize ratio_clamped ~bits:l) in
    let zero_msg = Word.constant b ~bits:l 0 in
    let discount = Word.mux b (Word.is_zero b orig) zero_msg discount in
    let outgoing = Array.make degree discount in
    let new_state =
      Array.concat
        ([ base; orig; threshold; penalty; value' ] @ Array.to_list holdings)
    in
    (new_state, outgoing)
  in
  let build_aggregand b ~state =
    let word off = Array.sub state (off * l) l in
    let threshold = word off_threshold and value = word off_value in
    let shortfall = Word.saturating_sub b threshold value in
    Word.zero_extend b shortfall ~bits:(agg_bits ~l)
  in
  {
    Vertex_program.name = "elliott-golub-jackson";
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
  Reference.egj_validate inst;
  let edges =
    List.sort_uniq compare
      (List.map (fun (holder, issuer, _) -> (issuer, holder)) inst.Reference.holdings)
  in
  Graph.create ~n:inst.Reference.egj_n ~edges

let encode inst ~graph ~l ~frac ~degree ~scale =
  Reference.egj_validate inst;
  let n = inst.Reference.egj_n in
  let cap = (1 lsl l) - 1 in
  let exception Unfit of string in
  let to_units what v =
    let u = int_of_float (Float.round (v /. scale *. float_of_int (1 lsl frac))) in
    if u < 0 || u > cap then
      raise (Unfit (Printf.sprintf "%s = %g does not fit %d bits" what v l));
    u
  in
  let holding_value = Hashtbl.create 64 in
  List.iter
    (fun (h, iss, share) ->
      Hashtbl.replace holding_value (h, iss) (share *. inst.Reference.orig_val.(iss)))
    inst.Reference.holdings;
  match
    Array.init n (fun i ->
        let words = Array.make (state_words ~degree) 0 in
        words.(off_base) <- to_units "base" inst.Reference.base_assets.(i);
        words.(off_orig) <- to_units "orig_val" inst.Reference.orig_val.(i);
        words.(off_threshold) <- to_units "threshold" inst.Reference.threshold.(i);
        words.(off_penalty) <- to_units "penalty" inst.Reference.penalty.(i);
        words.(off_value) <- to_units "value" inst.Reference.orig_val.(i);
        List.iteri
          (fun s issuer ->
            words.(off_holding ~s) <-
              to_units "holding"
                (Option.value ~default:0.0 (Hashtbl.find_opt holding_value (i, issuer))))
          (Graph.in_neighbors graph i);
        Bitvec.concat (Array.to_list (Array.map (fun w -> Bitvec.of_int ~bits:l w) words)))
  with
  | states -> Ok states
  | exception Unfit m -> Error m

let encode_instance inst ~graph ~l ~frac ~degree ~scale =
  match encode inst ~graph ~l ~frac ~degree ~scale with
  | Ok states -> states
  | Error m -> invalid_arg ("Egj_program.encode_instance: " ^ m)

let decode_output ~scale ~frac units =
  float_of_int units /. float_of_int (1 lsl frac) *. scale
