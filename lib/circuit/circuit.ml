type wire = int

type gate =
  | Input of int
  | Const of bool
  | Not of wire
  | Xor of wire * wire
  | And of wire * wire

type t = { gates : gate array; num_inputs : int; outputs : wire array }

let make ~gates ~num_inputs ~outputs =
  let n = Array.length gates in
  let check_wire i w =
    if w < 0 || w >= i then
      invalid_arg (Printf.sprintf "Circuit.make: gate %d refers to wire %d" i w)
  in
  Array.iteri
    (fun i g ->
      match g with
      | Input k ->
          if k < 0 || k >= num_inputs then
            invalid_arg (Printf.sprintf "Circuit.make: bad input index %d" k)
      | Const _ -> ()
      | Not a -> check_wire i a
      | Xor (a, b) | And (a, b) ->
          check_wire i a;
          check_wire i b)
    gates;
  Array.iter
    (fun w ->
      if w < 0 || w >= n then invalid_arg "Circuit.make: output refers to missing wire")
    outputs;
  { gates; num_inputs; outputs }

let eval t inputs =
  if Array.length inputs <> t.num_inputs then
    invalid_arg "Circuit.eval: wrong input length";
  let values = Array.make (Array.length t.gates) false in
  Array.iteri
    (fun i g ->
      values.(i) <-
        (match g with
        | Input k -> inputs.(k)
        | Const b -> b
        | Not a -> not values.(a)
        | Xor (a, b) -> values.(a) <> values.(b)
        | And (a, b) -> values.(a) && values.(b)))
    t.gates;
  Array.map (fun w -> values.(w)) t.outputs

let count p t = Array.fold_left (fun acc g -> if p g then acc + 1 else acc) 0 t.gates

let and_count = count (function And _ -> true | Input _ | Const _ | Not _ | Xor _ -> false)

let and_levels t =
  let levels = Array.make (Array.length t.gates) 0 in
  Array.iteri
    (fun i g ->
      levels.(i) <-
        (match g with
        | Input _ | Const _ -> 0
        | Not a -> levels.(a)
        | Xor (a, b) -> max levels.(a) levels.(b)
        | And (a, b) -> max levels.(a) levels.(b) + 1))
    t.gates;
  levels

let and_depth t =
  if Array.length t.gates = 0 then 0
  else Array.fold_left max 0 (and_levels t)

type stats = {
  inputs : int;
  gates : int;
  ands : int;
  xors : int;
  nots : int;
  depth : int;
}

(* One pass over the gate array: count gate kinds and track AND levels
   (same recurrence as [and_levels]) simultaneously. *)
let stats (t : t) =
  let n = Array.length t.gates in
  let levels = Array.make n 0 in
  let ands = ref 0 and xors = ref 0 and nots = ref 0 and depth = ref 0 in
  Array.iteri
    (fun i g ->
      match g with
      | Input _ | Const _ -> ()
      | Not a ->
          levels.(i) <- levels.(a);
          incr nots
      | Xor (a, b) ->
          levels.(i) <- max levels.(a) levels.(b);
          incr xors
      | And (a, b) ->
          let l = max levels.(a) levels.(b) + 1 in
          levels.(i) <- l;
          if l > !depth then depth := l;
          incr ands)
    t.gates;
  {
    inputs = t.num_inputs;
    gates = n;
    ands = !ands;
    xors = !xors;
    nots = !nots;
    depth = !depth;
  }

let pp_stats ppf s =
  Format.fprintf ppf "%d inputs, %d gates (%d AND / %d XOR / %d NOT), AND-depth %d"
    s.inputs s.gates s.ands s.xors s.nots s.depth
