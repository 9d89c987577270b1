type t = {
  n : int;
  edge_list : (int * int) list;
  out_adj : int list array; (* sorted *)
  in_adj : int list array;
  und_adj : int list array; (* sorted union *)
}

let create ~n ~edges =
  if n < 1 then invalid_arg "Graph.create: n < 1";
  let seen = Hashtbl.create (List.length edges) in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n then invalid_arg "Graph.create: endpoint out of range";
      if a = b then invalid_arg "Graph.create: self-loop";
      if Hashtbl.mem seen (a, b) then invalid_arg "Graph.create: duplicate edge";
      Hashtbl.replace seen (a, b) ())
    edges;
  let out_adj = Array.make n [] and in_adj = Array.make n [] in
  List.iter
    (fun (a, b) ->
      out_adj.(a) <- b :: out_adj.(a);
      in_adj.(b) <- a :: in_adj.(b))
    edges;
  let sort = List.sort_uniq compare in
  let out_adj = Array.map sort out_adj and in_adj = Array.map sort in_adj in
  let und_adj = Array.init n (fun i -> sort (out_adj.(i) @ in_adj.(i))) in
  { n; edge_list = edges; out_adj; in_adj; und_adj }

let n t = t.n
let edges t = t.edge_list
let out_neighbors t v = t.out_adj.(v)
let in_neighbors t v = t.in_adj.(v)

let max_degree t =
  let best = ref 0 in
  Array.iter (fun l -> best := max !best (List.length l)) t.und_adj;
  !best

let index_of lst x =
  let rec go i = function
    | [] -> raise Not_found
    | y :: rest -> if y = x then i else go (i + 1) rest
  in
  go 0 lst

let out_slot t ~src ~dst = index_of t.out_adj.(src) dst
let in_slot t ~src ~dst = index_of t.in_adj.(dst) src
let neighbor_slot t ~owner ~other = index_of t.und_adj.(owner) other
