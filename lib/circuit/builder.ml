type wire = Circuit.wire

(* Structural hash-consing table, typed on gates so lookups avoid the
   polymorphic hash and compare. Inputs are never pushed. *)
module Gate_table = Hashtbl.Make (struct
  type t = Circuit.gate

  let equal (x : t) (y : t) =
    match (x, y) with
    | Circuit.Input a, Circuit.Input b | Circuit.Not a, Circuit.Not b -> Int.equal a b
    | Circuit.Xor (a, b), Circuit.Xor (c, d) | Circuit.And (a, b), Circuit.And (c, d) ->
        Int.equal a c && Int.equal b d
    | Circuit.Const a, Circuit.Const b -> Bool.equal a b
    | _ -> false

  (* Pack the constructor tag and wires into one int, then spread it with
     a multiplicative mix: the table indexes buckets by the low bits, and
     wire pairs of a circuit are far too regular to use unmixed. *)
  let hash (g : t) =
    let key =
      match g with
      | Circuit.Input k -> k lsl 3
      | Circuit.Const v -> if v then 1 else 2
      | Circuit.Not a -> (a lsl 3) lor 3
      | Circuit.Xor (a, b) -> (((a lsl 24) lxor b) lsl 3) lor 4
      | Circuit.And (a, b) -> (((a lsl 24) lxor b) lsl 3) lor 5
    in
    let h = key * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 31)
end)

type t = {
  mutable gates : Circuit.gate array;
  mutable len : int;
  mutable num_inputs : int;
  cache : wire Gate_table.t;
  mutable sealed : bool;
}

let create () =
  { gates = Array.make 64 (Circuit.Const false); len = 0; num_inputs = 0;
    cache = Gate_table.create 256; sealed = false }

let push t gate =
  if t.sealed then invalid_arg "Builder: already finished";
  match Gate_table.find_opt t.cache gate with
  | Some w -> w
  | None ->
      if t.len = Array.length t.gates then begin
        let bigger = Array.make (2 * t.len) (Circuit.Const false) in
        Array.blit t.gates 0 bigger 0 t.len;
        t.gates <- bigger
      end;
      t.gates.(t.len) <- gate;
      let w = t.len in
      t.len <- t.len + 1;
      Gate_table.add t.cache gate w;
      w

let gate_of t w = t.gates.(w)

let input t =
  let k = t.num_inputs in
  t.num_inputs <- k + 1;
  (* Inputs are never hash-consed together: each allocation is distinct. *)
  if t.sealed then invalid_arg "Builder: already finished";
  if t.len = Array.length t.gates then begin
    let bigger = Array.make (2 * t.len) (Circuit.Const false) in
    Array.blit t.gates 0 bigger 0 t.len;
    t.gates <- bigger
  end;
  t.gates.(t.len) <- Circuit.Input k;
  let w = t.len in
  t.len <- t.len + 1;
  w

let inputs t n = Array.init n (fun _ -> input t)

let const t b = push t (Circuit.Const b)

let const_of t w =
  match gate_of t w with Circuit.Const b -> Some b | _ -> None

let bnot t a =
  match gate_of t a with
  | Circuit.Const b -> const t (not b)
  | Circuit.Not inner -> inner
  | Circuit.Input _ | Circuit.Xor _ | Circuit.And _ -> push t (Circuit.Not a)

let bxor t a b =
  if a = b then const t false
  else
    match (const_of t a, const_of t b) with
    | Some ca, Some cb -> const t (ca <> cb)
    | Some false, None -> b
    | None, Some false -> a
    | Some true, None -> bnot t b
    | None, Some true -> bnot t a
    | None, None ->
        (* Canonical operand order maximizes hash-consing hits. *)
        let a, b = if a <= b then (a, b) else (b, a) in
        push t (Circuit.Xor (a, b))

let band t a b =
  if a = b then a
  else
    match (const_of t a, const_of t b) with
    | Some ca, Some cb -> const t (ca && cb)
    | Some false, None | None, Some false -> const t false
    | Some true, None -> b
    | None, Some true -> a
    | None, None ->
        let a, b = if a <= b then (a, b) else (b, a) in
        push t (Circuit.And (a, b))

let bor t a b = bnot t (band t (bnot t a) (bnot t b))

(* if sel then a else b  =  b XOR (sel AND (a XOR b)) *)
let mux t sel a b = bxor t b (band t sel (bxor t a b))

(* With a constant operand the majority is a plain AND or OR of the
   other two. Folding that case first keeps the general form's two XOR
   gates out of comparisons against constants, such as the noise
   sampler's thresholds. *)
let maj t a b c =
  match (const_of t a, const_of t b, const_of t c) with
  | Some k, _, _ -> if k then bor t b c else band t b c
  | _, Some k, _ -> if k then bor t a c else band t a c
  | _, _, Some k -> if k then bor t a b else band t a b
  | None, None, None -> bxor t c (band t (bxor t a c) (bxor t b c))

let num_inputs t = t.num_inputs

let finish t ~outputs =
  if t.sealed then invalid_arg "Builder.finish: already finished";
  t.sealed <- true;
  let gates = Array.sub t.gates 0 t.len in
  (* Dead-gate elimination: keep only gates reachable from the outputs
     (plus all Input gates, which fix input positions). *)
  let live = Array.make t.len false in
  let rec mark w =
    if not live.(w) then begin
      live.(w) <- true;
      match gates.(w) with
      | Circuit.Input _ | Circuit.Const _ -> ()
      | Circuit.Not a -> mark a
      | Circuit.Xor (a, b) | Circuit.And (a, b) ->
          mark a;
          mark b
    end
  in
  Array.iter mark outputs;
  Array.iteri (fun i g -> match g with Circuit.Input _ -> live.(i) <- true | _ -> ()) gates;
  let remap = Array.make t.len (-1) in
  let kept = ref [] in
  let next = ref 0 in
  Array.iteri
    (fun i g ->
      if live.(i) then begin
        remap.(i) <- !next;
        incr next;
        kept := g :: !kept
      end)
    gates;
  let remap_gate = function
    | Circuit.Input _ | Circuit.Const _ as g -> g
    | Circuit.Not a -> Circuit.Not remap.(a)
    | Circuit.Xor (a, b) -> Circuit.Xor (remap.(a), remap.(b))
    | Circuit.And (a, b) -> Circuit.And (remap.(a), remap.(b))
  in
  let final = Array.of_list (List.rev_map remap_gate !kept) in
  Circuit.make ~gates:final ~num_inputs:t.num_inputs
    ~outputs:(Array.map (fun w -> remap.(w)) outputs)
