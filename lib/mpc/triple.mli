(** GMW preprocessing ({!Gmw.preprocess}) stores no correlated
    randomness; this module keeps only the no-op cache perfbench calls. *)

(** Holds nothing: [clear] is a no-op kept only because perfbench still
    calls [Cache.clear Cache.shared] after each solo query. ROADMAP item
    10 drops that call, then this module. *)
module Cache : sig
  type t

  val shared : t
  val clear : t -> unit
end
