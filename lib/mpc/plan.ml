module Circuit = Dstress_circuit.Circuit

(* A compiled evaluation plan: the circuit's gates partitioned into its
   AND-levels, with operand/destination wire indices resolved once. The
   GMW evaluator replays the plan instead of re-sweeping the gate array
   every round, and the order of AND gates inside each level equals their
   wire order — exactly the batches the previous sweep-based evaluator
   produced, so PRG consumption, traffic and counters are unchanged. *)

type op =
  | Load_input of { dst : int; input : int }
  | Load_const of { dst : int; value : bool }
  | Local_not of { dst : int; src : int }
  | Local_xor of { dst : int; a : int; b : int }

type level = {
  and_dst : int array; (* destination wires of this round's AND batch *)
  and_a : int array; (* left operand wire per batch entry *)
  and_b : int array; (* right operand wire per batch entry *)
  post : op array; (* local gates that become ready after the batch *)
}

type t = {
  circuit : Circuit.t;
  prologue : op array; (* local gates computable before any AND round *)
  levels : level array; (* one entry per AND round, in round order *)
  num_wires : int;
}

let circuit t = t.circuit
let num_wires t = t.num_wires
let prologue t = t.prologue
let levels t = t.levels
let depth t = Array.length t.levels
let and_count t = Array.fold_left (fun a l -> a + Array.length l.and_dst) 0 t.levels

let compile (circuit : Circuit.t) =
  let gates = circuit.Circuit.gates in
  let levels = Circuit.and_levels circuit in
  let depth = Circuit.and_depth circuit in
  (* Buckets per level, built back to front with one pass then reversed:
     locals at level l run after the ANDs of round l (they depend on them);
     locals at level 0 run before any round. *)
  let local_rev = Array.make (depth + 1) [] in
  let and_rev = Array.make (depth + 1) [] in
  Array.iteri
    (fun i g ->
      let l = levels.(i) in
      match g with
      | Circuit.Input k -> local_rev.(l) <- Load_input { dst = i; input = k } :: local_rev.(l)
      | Circuit.Const b -> local_rev.(l) <- Load_const { dst = i; value = b } :: local_rev.(l)
      | Circuit.Not a -> local_rev.(l) <- Local_not { dst = i; src = a } :: local_rev.(l)
      | Circuit.Xor (a, b) -> local_rev.(l) <- Local_xor { dst = i; a; b } :: local_rev.(l)
      | Circuit.And (a, b) -> and_rev.(l) <- (i, a, b) :: and_rev.(l))
    gates;
  let prologue = Array.of_list (List.rev local_rev.(0)) in
  let levels =
    Array.init depth (fun r ->
        let ands = Array.of_list (List.rev and_rev.(r + 1)) in
        {
          and_dst = Array.map (fun (i, _, _) -> i) ands;
          and_a = Array.map (fun (_, a, _) -> a) ands;
          and_b = Array.map (fun (_, _, b) -> b) ands;
          post = Array.of_list (List.rev local_rev.(r + 1));
        })
  in
  { circuit; prologue; levels; num_wires = Array.length gates }
