(* Bits live in a bool array; vectors are short (tens of bits), so the
   simple representation wins on clarity with no realistic cost. The array
   is never mutated after construction, preserving value semantics. *)
type t = bool array

let length = Array.length

let create n v = Array.make n v

let init = Array.init

let get t i =
  if i < 0 || i >= Array.length t then invalid_arg "Bitvec.get";
  t.(i)

let unsafe_get (t : t) i = Array.unsafe_get t i

let set t i v =
  if i < 0 || i >= Array.length t then invalid_arg "Bitvec.set";
  let t' = Array.copy t in
  t'.(i) <- v;
  t'

let of_int ~bits v =
  if bits < 0 then invalid_arg "Bitvec.of_int";
  Array.init bits (fun i -> (v lsr i) land 1 = 1)

let to_int t =
  if Array.length t > 62 then invalid_arg "Bitvec.to_int: too long";
  let r = ref 0 in
  for i = Array.length t - 1 downto 0 do
    r := (!r lsl 1) lor (if t.(i) then 1 else 0)
  done;
  !r

let to_int_signed t =
  let n = Array.length t in
  if n = 0 then 0
  else
    let u = to_int t in
    if t.(n - 1) then u - (1 lsl n) else u

let check_len a b name = if Array.length a <> Array.length b then invalid_arg name

let xor a b =
  check_len a b "Bitvec.xor";
  Array.mapi (fun i x -> x <> b.(i)) a

let logand a b =
  check_len a b "Bitvec.logand";
  Array.mapi (fun i x -> x && b.(i)) a


let random prng n = Array.init n (fun _ -> Prng.bool prng)

let xor_all = function
  | [] -> invalid_arg "Bitvec.xor_all: empty list"
  | x :: rest -> List.fold_left xor x rest

let concat = Array.concat

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length t then invalid_arg "Bitvec.sub";
  Array.sub t pos len

let to_bool_array = Array.copy
let of_bool_array = Array.copy

let equal a b = a = b
