type t = Builder.wire array

let width = Array.length

let constant b ~bits v =
  Array.init bits (fun i -> Builder.const b ((v asr i) land 1 = 1))

let inputs b ~bits = Builder.inputs b bits

let zero_extend b w ~bits =
  if bits < Array.length w then invalid_arg "Word.zero_extend: narrower target";
  Array.init bits (fun i -> if i < Array.length w then w.(i) else Builder.const b false)

let truncate w ~bits =
  if bits > Array.length w then invalid_arg "Word.truncate: wider target";
  Array.sub w 0 bits

let shift_left_const b w k =
  let n = Array.length w in
  Array.init n (fun i -> if i < k then Builder.const b false else w.(i - k))

let shift_right_const b w k =
  let n = Array.length w in
  Array.init n (fun i -> if i + k < n then w.(i + k) else Builder.const b false)

let check_widths name a c =
  if Array.length a <> Array.length c then invalid_arg ("Word." ^ name ^ ": width mismatch")

(* Ripple-carry x + y + c, one AND per bit: the carry is [Builder.maj],
   and the sum bit (x XOR c) XOR y reuses the XOR that [maj] builds. *)
let adder b x y c =
  let n = Array.length x in
  let out = Array.make n (Builder.const b false) in
  let carry = ref c in
  for i = 0 to n - 1 do
    out.(i) <- Builder.bxor b (Builder.bxor b x.(i) !carry) y.(i);
    carry := Builder.maj b x.(i) y.(i) !carry
  done;
  (out, !carry)

let add_with_carry b x y =
  check_widths "add" x y;
  adder b x y (Builder.const b false)

let add b x y = fst (add_with_carry b x y)

let lognot b w = Array.map (Builder.bnot b) w

(* x - y = x + NOT y + 1; borrow = NOT carry_out. *)
let sub_with_borrow b x y =
  check_widths "sub" x y;
  let out, carry = adder b x (lognot b y) (Builder.const b true) in
  (out, Builder.bnot b carry)

let sub b x y = fst (sub_with_borrow b x y)

let negate b w = sub b (Array.map (fun _ -> Builder.const b false) w) w

let mux b sel x y =
  check_widths "mux" x y;
  Array.init (Array.length x) (fun i -> Builder.mux b sel x.(i) y.(i))

let saturating_sub b x y =
  let diff, borrow = sub_with_borrow b x y in
  let zero = Array.map (fun _ -> Builder.const b false) x in
  mux b borrow zero diff

let eq b x y =
  check_widths "eq" x y;
  let diff = Array.mapi (fun i xi -> Builder.bxor b xi y.(i)) x in
  (* NOT (OR of diffs) = AND of NOTs *)
  Array.fold_left (fun acc d -> Builder.band b acc (Builder.bnot b d)) (Builder.const b true) diff

let is_zero b w =
  Array.fold_left (fun acc bit -> Builder.band b acc (Builder.bnot b bit)) (Builder.const b true) w

(* The borrow of x - y from the carry chain alone: no difference bits. *)
let lt b x y =
  check_widths "lt" x y;
  let carry = ref (Builder.const b true) in
  Array.iter2 (fun xi yi -> carry := Builder.maj b xi (Builder.bnot b yi) !carry) x y;
  Builder.bnot b !carry

let ge b x y = Builder.bnot b (lt b x y)

let min b x y = mux b (lt b x y) x y

(* Shift-and-add schoolbook multiplier. *)
let mul b x y =
  let nx = Array.length x and ny = Array.length y in
  let bits = nx + ny in
  let acc = ref (constant b ~bits 0) in
  for i = 0 to ny - 1 do
    let partial =
      Array.init bits (fun j ->
          if j < i || j - i >= nx then Builder.const b false
          else Builder.band b x.(j - i) y.(i))
    in
    acc := add b !acc partial
  done;
  !acc

let mul_truncated b x y ~bits =
  let nx = Array.length x and ny = Array.length y in
  let acc = ref (constant b ~bits 0) in
  for i = 0 to Stdlib.min (ny - 1) (bits - 1) do
    let partial =
      Array.init bits (fun j ->
          if j < i || j - i >= nx then Builder.const b false
          else Builder.band b x.(j - i) y.(i))
    in
    acc := add b !acc partial
  done;
  !acc

(* Non-restoring division, MSB-first. The running remainder r is a
   signed (m+1)-bit word in [-divisor, divisor). Each step shifts the
   next dividend bit into r, then subtracts the divisor if r was >= 0 and
   adds it if r was < 0, both as one adder: r + (divisor XOR s) + s, with
   s = 1 to subtract. The quotient bit is NOT sign(r). A negative final r
   is corrected by adding the divisor back. A zero divisor leaves r
   holding the dividend's low bits but lets its sign flip, so the
   quotient bits are forced to 1 there. *)
let divmod b dividend divisor =
  let n = Array.length dividend and m = Array.length divisor in
  let rw = m + 1 in
  let divisor_ext = zero_extend b divisor ~bits:rw in
  let quotient = Array.make n (Builder.const b false) in
  let r = ref (constant b ~bits:rw 0) in
  for i = n - 1 downto 0 do
    let shifted = Array.init rw (fun j -> if j = 0 then dividend.(i) else !r.(j - 1)) in
    let subtract = Builder.bnot b !r.(m) in
    let operand = Array.map (fun d -> Builder.bxor b d subtract) divisor_ext in
    r := fst (adder b shifted operand subtract);
    quotient.(i) <- Builder.bnot b !r.(m)
  done;
  let zero = is_zero b divisor in
  let quotient = Array.map (fun q -> Builder.bor b q zero) quotient in
  let negative = !r.(m) in
  let correction = Array.map (fun d -> Builder.band b d negative) divisor in
  (quotient, add b (truncate !r ~bits:m) correction)

let logand b x y =
  check_widths "logand" x y;
  Array.mapi (fun i xi -> Builder.band b xi y.(i)) x

let logxor b x y =
  check_widths "logxor" x y;
  Array.mapi (fun i xi -> Builder.bxor b xi y.(i)) x

let sum b ~bits = function
  | [] -> invalid_arg "Word.sum: empty"
  | first :: rest ->
      List.fold_left
        (fun acc w -> add b acc (zero_extend b w ~bits))
        (zero_extend b first ~bits)
        rest
