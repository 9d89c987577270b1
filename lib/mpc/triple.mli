(** Correlated randomness for the GMW offline/online split.

    Every bit of randomness a GMW evaluation consumes — base-OT setup
    bytes and the Beaver-style mask bit each ordered party pair draws per
    AND gate — is a deterministic function of the session seed and the
    circuit's AND-level structure, and none of it depends on the inputs.
    The offline phase therefore replays those draws ahead of time
    ({!Gmw.generate_material}) and stores the results here; the online
    phase consumes them ({!Gmw.attach_material}) and skips every PRG and
    hash invocation on the critical path while remaining bit-identical —
    same output shares, same traffic matrices, same rounds/AND/OT
    counters, same per-party PRG states — to a session that generated
    inline.

    A material belongs to the run that drew it: it is bound to one
    compiled {!Plan.t} and serves one session. Nothing is cached across
    runs. *)

type eval = {
  masks : bytes array array;
      (** [masks.(level).(sender * parties + receiver)] holds one byte per
          AND gate of that level, drawn from the sender's party PRG in the
          online draw order; bit 0 of each byte is the mask bit. Diagonal
          entries are empty. *)
  post_prgs : Dstress_crypto.Prg.t array;
      (** Per-party PRG snapshots as they stand after this evaluation —
          restored on consumption so later inline draws continue the
          stream exactly. *)
}
(** Pre-drawn randomness for one full circuit evaluation. *)

type material = {
  plan : Plan.t;
      (** The plan it was drawn for, matched by physical identity: any
          other plan, even a structurally equal one, drops the material. *)
  parties : int;
  ot_mode : Dstress_crypto.Ot_ext.mode;
  evals : eval array;
  ot : Dstress_crypto.Ot_ext.session option array array;
      (** Post-setup OT-extension sessions, [.(sender).(receiver)]; the
          session the material is attached to takes them over. *)
  setup_traffic : Traffic.t;
      (** Base-OT setup traffic, charged to the online session at attach
          time (inline it would be charged lazily during the first
          evaluation — indistinguishable to any observer that reads
          traffic after an evaluation). *)
}
(** The full offline product for one session's evaluations of one plan. *)

val evals_available : material -> int

(** Holds nothing: [clear] is a no-op kept only because perfbench still
    calls [Cache.clear Cache.shared] after each solo query. ROADMAP item
    10 drops that call, then this module. *)
module Cache : sig
  type t

  val shared : t
  val clear : t -> unit
end
