(** Yao garbled circuits: two-party secure computation over the same
    boolean-circuit IR the GMW engine uses.

    §6 of the paper contrasts DStress with the 2PC line of work (GraphSC,
    Nayak et al.), which evaluates graph computations under garbled
    circuits; this module provides that comparison point, and it is also
    the natural MPC back end when a computation involves exactly two
    parties (e.g. a bilateral netting step between two banks).

    The construction is the modern textbook stack:
    - {b free XOR} (Kolesnikov–Schneider): a global offset [delta] with
      its lowest bit set; the two labels of every wire differ by [delta],
      so XOR and NOT gates cost nothing;
    - {b point and permute}: the low bit of a label is its (blinded) row
      index, so the evaluator decrypts exactly one of the four rows of
      each AND-gate table;
    - AND tables mask output labels with [H(label_a, label_b, gate_id)]
      (SHA-256 based);
    - the evaluator's input labels are delivered by oblivious transfer
      ({!Ot_ext}), the garbler's by direct send; outputs decode with the
      garbler's permute bits.

    Both parties run in-process with metered traffic, like everything
    else in this code base. *)

type result = {
  output : Dstress_util.Bitvec.t;
  and_tables : int;  (** garbled tables transmitted = AND-gate count *)
  table_bytes : int;
}

val execute :
  ?mode:Ot_ext.mode ->
  Group.t ->
  Xfer.t ->
  Dstress_circuit.Circuit.t ->
  garbler_bits:int ->
  garbler_input:Dstress_util.Bitvec.t ->
  evaluator_input:Dstress_util.Bitvec.t ->
  seed:string ->
  result
(** [execute grp meter c ~garbler_bits ~garbler_input ~evaluator_input]
    evaluates [c], whose first [garbler_bits] inputs belong to the
    garbler and the rest to the evaluator. Returns the cleartext outputs
    (as learned by the evaluator) plus table statistics. [meter]'s [a] is
    the garbler. Raises [Invalid_argument] on width mismatches. *)

val label_bytes : int
(** Size of a wire label (16 bytes, kappa = 128). *)
