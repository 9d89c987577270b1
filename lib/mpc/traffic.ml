type t = {
  n : int;
  bytes : int array; (* row-major [src * n + dst] *)
  external_in : int array; (* bytes sent to each party from outside the party set *)
}

let create n =
  if n < 1 then invalid_arg "Traffic.create: n < 1";
  { n; bytes = Array.make (n * n) 0; external_in = Array.make n 0 }

let parties t = t.n

let add t ~src ~dst amount =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Traffic.add: party out of range";
  if amount < 0 then invalid_arg "Traffic.add: negative bytes";
  let i = (src * t.n) + dst in
  t.bytes.(i) <- t.bytes.(i) + amount

let add_external t ~dst amount =
  if dst < 0 || dst >= t.n then invalid_arg "Traffic.add_external: party out of range";
  if amount < 0 then invalid_arg "Traffic.add_external: negative bytes";
  t.external_in.(dst) <- t.external_in.(dst) + amount

let external_to t p =
  if p < 0 || p >= t.n then invalid_arg "Traffic.external_to: party out of range";
  t.external_in.(p)

let external_total t = Array.fold_left ( + ) 0 t.external_in

let sent_by t p =
  let acc = ref 0 in
  for dst = 0 to t.n - 1 do
    acc := !acc + t.bytes.((p * t.n) + dst)
  done;
  !acc

let received_by t p =
  let acc = ref t.external_in.(p) in
  for src = 0 to t.n - 1 do
    acc := !acc + t.bytes.((src * t.n) + p)
  done;
  !acc

let by_node t p = sent_by t p + received_by t p

let total t = Array.fold_left ( + ) 0 t.bytes + external_total t

let max_per_node t =
  let best = ref 0 in
  for p = 0 to t.n - 1 do
    if by_node t p > !best then best := by_node t p
  done;
  !best

let mean_per_node t =
  let acc = ref 0 in
  for p = 0 to t.n - 1 do
    acc := !acc + by_node t p
  done;
  float_of_int !acc /. float_of_int t.n

let equal a b = a.n = b.n && a.bytes = b.bytes && a.external_in = b.external_in

let merge_into ~dst src =
  if dst.n <> src.n then invalid_arg "Traffic.merge_into: size mismatch";
  Array.iteri (fun i v -> dst.bytes.(i) <- dst.bytes.(i) + v) src.bytes;
  Array.iteri (fun i v -> dst.external_in.(i) <- dst.external_in.(i) + v) src.external_in

let clear t =
  Array.fill t.bytes 0 (Array.length t.bytes) 0;
  Array.fill t.external_in 0 t.n 0

let iter_nonzero t f =
  Array.iteri
    (fun i v -> if v <> 0 then f ~src:(i / t.n) ~dst:(i mod t.n) v)
    t.bytes

let observe ?(prefix = "traffic") t obs =
  let module Obs = Dstress_obs.Obs in
  Obs.incr obs ~by:(total t) (prefix ^ ".bytes");
  Obs.incr obs ~by:(external_total t) (prefix ^ ".external_bytes");
  Obs.set obs (prefix ^ ".max_node_bytes") (float_of_int (max_per_node t));
  Obs.set obs (prefix ^ ".mean_node_bytes") (mean_per_node t);
  if Obs.enabled obs then
    for p = 0 to t.n - 1 do
      Obs.set obs (Printf.sprintf "%s.node.%03d.sent" prefix p) (float_of_int (sent_by t p));
      Obs.set obs
        (Printf.sprintf "%s.node.%03d.received" prefix p)
        (float_of_int (received_by t p))
    done

let pp ppf t =
  Format.fprintf ppf "@[<v>traffic over %d parties: %d B total, max/node %d B@]" t.n
    (total t) (max_per_node t)
