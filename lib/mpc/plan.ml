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
  digest : string option Atomic.t; (* structural circuit hash, on first read *)
}

let circuit t = t.circuit
let num_wires t = t.num_wires
let prologue t = t.prologue
let levels t = t.levels
let depth t = Array.length t.levels
let and_count t = Array.fold_left (fun a l -> a + Array.length l.and_dst) 0 t.levels

(* Structural identity for preprocessed material: every run rebuilds its
   circuits, so physical equality would never match a material cached by
   an earlier run; cached triples are matched by a hash of the circuit's
   full gate list instead. *)
let circuit_digest (circuit : Circuit.t) =
  let b = Buffer.create (12 * Array.length circuit.Circuit.gates) in
  let int n = Buffer.add_string b (string_of_int n) in
  let item c n =
    Buffer.add_char b c;
    int n;
    Buffer.add_char b ';'
  in
  let pair c x y =
    Buffer.add_char b c;
    int x;
    Buffer.add_char b ',';
    int y;
    Buffer.add_char b ';'
  in
  Buffer.add_string b "in";
  int circuit.Circuit.num_inputs;
  Buffer.add_char b ';';
  Array.iter
    (fun g ->
      match g with
      | Circuit.Input k -> item 'i' k
      | Circuit.Const v -> Buffer.add_string b (if v then "c1;" else "c0;")
      | Circuit.Not a -> item 'n' a
      | Circuit.Xor (a, c) -> pair 'x' a c
      | Circuit.And (a, c) -> pair 'a' a c)
    circuit.Circuit.gates;
  Array.iter (item 'o') circuit.Circuit.outputs;
  Dstress_util.Hex.encode (Dstress_crypto.Sha256.digest (Buffer.to_bytes b))

(* Only preprocessing reads the digest, so it is hashed on first read, not
   at compile time. Domains may race that read on a shared memoized plan:
   each racer hashes the same immutable circuit to the same string, so the
   cache is a plain atomic cell (a racing [Lazy.force] would raise). *)
let digest t =
  match Atomic.get t.digest with
  | Some d -> d
  | None ->
      let d = circuit_digest t.circuit in
      Atomic.set t.digest (Some d);
      d

let compilations_counter = Atomic.make 0
let compilations () = Atomic.get compilations_counter

let compile (circuit : Circuit.t) =
  Atomic.incr compilations_counter;
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
  { circuit; prologue; levels; num_wires = Array.length gates; digest = Atomic.make None }

(* Plans are memoized on the physical identity of the circuit: DStress
   evaluates the same update circuit once per vertex per round, and
   circuits are immutable once built. Each entry is an ephemeron keyed on
   its circuit, so a plan lives exactly as long as its circuit: engine runs
   build fresh circuits per request, and a long-lived process must not pin
   the dead ones. The table is held under a mutex so parallel executor
   domains can share it. *)
module Memo = Ephemeron.K1.Make (struct
  type t = Circuit.t

  let equal = ( == )

  (* Physical identity cannot be hashed (the GC moves blocks); any
     function of the immutable contents is consistent with it. *)
  let hash (c : t) = Hashtbl.hash (Array.length c.Circuit.gates, c.Circuit.num_inputs)
end)

let memo = Memo.create 16
let memo_mutex = Mutex.create ()

let of_circuit circuit =
  Mutex.protect memo_mutex (fun () ->
      match Memo.find_opt memo circuit with
      | Some plan -> plan
      | None ->
          let plan = compile circuit in
          Memo.replace memo circuit plan;
          plan)
