module Builder = Dstress_circuit.Builder
module Word = Dstress_circuit.Word

let coin_bits = 32

(* m = floor(log2(max_magnitude + 1)): the most binary digits whose
   largest value 2^m - 1 stays within the bound. *)
let digits ~max_magnitude =
  let rec widest m = if (1 lsl (m + 1)) - 1 <= max_magnitude then widest (m + 1) else m in
  widest 0

let input_bits ~max_magnitude = 2 * digits ~max_magnitude * coin_bits

(* A geometric conditioned on [0, 2^m) has P(g) proportional to
   alpha^g = prod_j (alpha^(2^j))^(g_j), so its digits g_j are
   independent with P(g_j = 1) = alpha^(2^j) / (1 + alpha^(2^j)). *)
let coin_thresholds ~alpha ~max_magnitude =
  if alpha <= 0.0 || alpha >= 1.0 then invalid_arg "Noise_circuit: alpha out of (0,1)";
  if max_magnitude < 1 then invalid_arg "Noise_circuit: max_magnitude < 1";
  let scale = 2.0 ** float_of_int coin_bits in
  Array.init (digits ~max_magnitude) (fun j ->
      let a = alpha ** float_of_int (1 lsl j) in
      int_of_float (Float.round (a /. (1.0 +. a) *. scale)))

let add_noise b ~alpha ~max_magnitude ~value ~uniform =
  let ts = coin_thresholds ~alpha ~max_magnitude in
  let m = Array.length ts in
  if Word.width uniform <> input_bits ~max_magnitude then
    invalid_arg "Noise_circuit.add_noise: uniform is not input_bits wide";
  let bits = Word.width value in
  if bits <= m then invalid_arg "Noise_circuit.add_noise: value too narrow for max_magnitude";
  (* Coin c reads the c-th 32-bit word and comes up 1 iff the word is
     below its threshold. A threshold of 0 folds the coin to constant 0. *)
  let coin c j =
    Word.lt b (Array.sub uniform (c * coin_bits) coin_bits)
      (Word.constant b ~bits:coin_bits ts.(j))
  in
  (* G1 takes coins 0..m-1 and G2 coins m..2m-1, each as an (m+1)-bit
     word, so G1 - G2 is exact in m + 1 bits; its top bit is the sign. *)
  let geometric first =
    Array.init (m + 1) (fun j -> if j < m then coin (first + j) j else Builder.const b false)
  in
  let noise = Word.sub b (geometric 0) (geometric m) in
  Word.add b value (Array.init bits (fun i -> noise.(min i m)))
