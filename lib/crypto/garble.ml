module Bitvec = Dstress_util.Bitvec
module Circuit = Dstress_circuit.Circuit

let label_bytes = 16

type result = {
  output : Bitvec.t;
  and_tables : int;
  table_bytes : int;
}

let xor_labels a b =
  Bytes.init label_bytes (fun i ->
      Char.chr (Char.code (Bytes.get a i) lxor Char.code (Bytes.get b i)))

let lsb label = Char.code (Bytes.get label 0) land 1

(* Row mask: H(gate id, label_a, label_b) truncated to one label. *)
let row_hash gid la lb =
  let payload =
    Bytes.concat (Bytes.of_string "|")
      [ Bytes.of_string (string_of_int gid); la; lb ]
  in
  Bytes.sub (Sha256.digest payload) 0 label_bytes

let execute ?(mode = Ot_ext.Crypto) grp meter circuit ~garbler_bits ~garbler_input
    ~evaluator_input ~seed =
  let num_inputs = circuit.Circuit.num_inputs in
  if garbler_bits < 0 || garbler_bits > num_inputs then
    invalid_arg "Garble.execute: bad garbler_bits";
  if Bitvec.length garbler_input <> garbler_bits then
    invalid_arg "Garble.execute: garbler input width";
  if Bitvec.length evaluator_input <> num_inputs - garbler_bits then
    invalid_arg "Garble.execute: evaluator input width";
  let prg = Prg.of_string ("garble:" ^ seed) in
  (* Global free-XOR offset; low bit forced so the two labels of a wire
     always carry opposite permute bits. *)
  let delta = Prg.bytes prg label_bytes in
  Bytes.set delta 0 (Char.chr (Char.code (Bytes.get delta 0) lor 1));
  let fresh_label () = Prg.bytes prg label_bytes in
  let gates = circuit.Circuit.gates in
  let ngates = Array.length gates in
  (* Garbler side: zero-labels for every wire (label for value 1 is
     label0 XOR delta), plus tables for AND gates. *)
  let label0 = Array.make ngates (Bytes.create 0) in
  let tables : (int * bytes array) list ref = ref [] in
  let and_count = ref 0 in
  Array.iteri
    (fun gid gate ->
      match gate with
      | Circuit.Input _ | Circuit.Const _ -> label0.(gid) <- fresh_label ()
      | Circuit.Xor (a, b) -> label0.(gid) <- xor_labels label0.(a) label0.(b)
      | Circuit.Not a -> label0.(gid) <- xor_labels label0.(a) delta
      | Circuit.And (a, b) ->
          let out0 = fresh_label () in
          label0.(gid) <- out0;
          incr and_count;
          let table = Array.make 4 (Bytes.create 0) in
          List.iter
            (fun (va, vb) ->
              let la = if va = 1 then xor_labels label0.(a) delta else label0.(a) in
              let lb = if vb = 1 then xor_labels label0.(b) delta else label0.(b) in
              let out = if va land vb = 1 then xor_labels out0 delta else out0 in
              (* Point-and-permute row index from the labels' low bits. *)
              table.((2 * lsb la) + lsb lb) <- xor_labels (row_hash gid la lb) out)
            [ (0, 0); (0, 1); (1, 0); (1, 1) ];
          tables := (gid, table) :: !tables)
    gates;
  let tables = List.rev !tables in
  let label_of gid v = if v then xor_labels label0.(gid) delta else label0.(gid) in
  (* --- Sent: garbler -> evaluator ------------------------------- *)
  (* Tables. *)
  let table_bytes = 4 * label_bytes * !and_count in
  Xfer.add_a_to_b meter table_bytes;
  (* Garbler's input labels and the (public) constant labels. *)
  let active = Array.make ngates (Bytes.create 0) in
  let garbler_label_count = ref 0 in
  Array.iteri
    (fun gid gate ->
      match gate with
      | Circuit.Input k when k < garbler_bits ->
          active.(gid) <- label_of gid (Bitvec.get garbler_input k);
          incr garbler_label_count
      | Circuit.Const b ->
          active.(gid) <- label_of gid b;
          incr garbler_label_count
      | Circuit.Input _ | Circuit.Xor _ | Circuit.Not _ | Circuit.And _ -> ())
    gates;
  Xfer.add_a_to_b meter (!garbler_label_count * label_bytes);
  (* Evaluator's input labels via OT (garbler = sender). *)
  let evaluator_wires =
    Array.of_list
      (List.concat
         (List.init ngates (fun gid ->
              match gates.(gid) with
              | Circuit.Input k when k >= garbler_bits -> [ (gid, k - garbler_bits) ]
              | Circuit.Input _ | Circuit.Const _ | Circuit.Xor _ | Circuit.Not _
              | Circuit.And _ -> [])))
  in
  if Array.length evaluator_wires > 0 then begin
    let ot =
      Ot_ext.setup ~mode grp meter ~sender_prg:(Prg.of_string ("garble-ot-s:" ^ seed))
        ~receiver_prg:(Prg.of_string ("garble-ot-r:" ^ seed))
    in
    let pairs =
      Array.map (fun (gid, _) -> (label_of gid false, label_of gid true)) evaluator_wires
    in
    let choices = Array.map (fun (_, k) -> Bitvec.get evaluator_input k) evaluator_wires in
    let received = Ot_ext.extend ot meter ~pairs ~choices in
    Array.iteri (fun i (gid, _) -> active.(gid) <- received.(i)) evaluator_wires
  end;
  (* Output decode bits. *)
  Xfer.add_a_to_b meter ((Array.length circuit.Circuit.outputs + 7) / 8);
  (* --- Evaluation (evaluator side) ------------------------------- *)
  let table_of = Hashtbl.create (max 1 !and_count) in
  List.iter (fun (gid, t) -> Hashtbl.replace table_of gid t) tables;
  Array.iteri
    (fun gid gate ->
      match gate with
      | Circuit.Input _ | Circuit.Const _ -> ()
      | Circuit.Xor (a, b) -> active.(gid) <- xor_labels active.(a) active.(b)
      (* NOT is free for the evaluator too: the garbler flipped the wire's
         semantics (label0_c = label1_a), so the active label is reused
         unchanged — delta never leaves the garbler. *)
      | Circuit.Not a -> active.(gid) <- active.(a)
      | Circuit.And (a, b) ->
          let table = Hashtbl.find table_of gid in
          let row = table.((2 * lsb active.(a)) + lsb active.(b)) in
          active.(gid) <- xor_labels row (row_hash gid active.(a) active.(b)))
    gates;
  let output =
    Bitvec.init (Array.length circuit.Circuit.outputs) (fun o ->
        let w = circuit.Circuit.outputs.(o) in
        (* decode: value = lsb(active) XOR permute bit of the wire *)
        lsb active.(w) lxor lsb label0.(w) = 1)
  in
  { output; and_tables = !and_count; table_bytes }
