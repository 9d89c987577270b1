type entry = { label : string; epsilon : float }

type t = {
  epsilon_max : float;
  mutable spent : float;
  mutable entries : entry list; (* reversed *)
}

let create ~epsilon_max =
  if epsilon_max <= 0.0 then invalid_arg "Budget.create: epsilon_max <= 0";
  { epsilon_max; spent = 0.0; entries = [] }

let epsilon_max t = t.epsilon_max
let spent t = t.spent
let remaining t = t.epsilon_max -. t.spent

let spend t ~label ~epsilon =
  if epsilon <= 0.0 then invalid_arg "Budget.spend: epsilon <= 0";
  if t.spent +. epsilon > t.epsilon_max +. 1e-12 then
    Error
      (Printf.sprintf "budget exhausted: requested %.6g, remaining %.6g of %.6g" epsilon
         (remaining t) t.epsilon_max)
  else begin
    t.spent <- t.spent +. epsilon;
    t.entries <- { label; epsilon } :: t.entries;
    Ok ()
  end

let ledger t = List.rev t.entries

let replenish t =
  t.spent <- 0.0;
  t.entries <- []
