module Bitvec = Dstress_util.Bitvec
module Builder = Dstress_circuit.Builder
module Word = Dstress_circuit.Word
module Circuit = Dstress_circuit.Circuit
module Gmw = Dstress_mpc.Gmw
module Sharing = Dstress_mpc.Sharing
module Traffic = Dstress_mpc.Traffic

let circuit ~n ~bits =
  let b = Builder.create () in
  let matrix () = Array.init (n * n) (fun _ -> Word.inputs b ~bits) in
  let a = matrix () and bm = matrix () in
  let out = Array.make (n * n) [||] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let terms =
        List.init n (fun k -> Word.mul_truncated b a.((i * n) + k) bm.((k * n) + j) ~bits)
      in
      out.((i * n) + j) <- Word.truncate (Word.sum b ~bits terms) ~bits
    done
  done;
  Builder.finish b ~outputs:(Array.concat (Array.to_list out))

let and_gates ~n ~bits = Circuit.and_count (circuit ~n ~bits)

type measurement = {
  n : int;
  seconds : float;
  and_count : int;
  total_bytes : int;
}

let measure grp ~parties ~n ~bits ~seed =
  let c = circuit ~n ~bits in
  let session = Gmw.create_session grp ~parties ~seed in
  let prng = Dstress_util.Prng.of_int (Hashtbl.hash seed) in
  let inputs = Bitvec.random prng (2 * n * n * bits) in
  let input_shares = Gmw.share_input session inputs in
  let t0 = Unix.gettimeofday () in
  let out_shares = Gmw.eval session c ~input_shares in
  let seconds = Unix.gettimeofday () -. t0 in
  (* Sanity: the protocol result must match plaintext evaluation. *)
  let got = Sharing.reconstruct out_shares in
  let expected =
    Bitvec.of_bool_array (Circuit.eval c (Bitvec.to_bool_array inputs))
  in
  if not (Bitvec.equal got expected) then failwith "Matmul.measure: GMW result mismatch";
  {
    n;
    seconds;
    and_count = Circuit.and_count c;
    total_bytes = Traffic.total (Gmw.traffic session);
  }

let fit_cubic measurements =
  if measurements = [] then invalid_arg "Matmul.fit_cubic: empty";
  (* Single-coefficient least squares: c = sum(t * n^3) / sum(n^6). *)
  let num = ref 0.0 and den = ref 0.0 in
  List.iter
    (fun m ->
      let n3 = float_of_int (m.n * m.n * m.n) in
      num := !num +. (m.seconds *. n3);
      den := !den +. (n3 *. n3))
    measurements;
  !num /. !den

let extrapolate_seconds ~c ~n ~powers =
  c *. float_of_int (n * n * n) *. float_of_int powers

let years seconds = seconds /. (365.25 *. 24.0 *. 3600.0)
