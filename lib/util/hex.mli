(** Hexadecimal decoding of byte strings. *)

val decode : string -> bytes
(** Two hex digits per byte; accepts upper- and lowercase digits.
    Raises [Invalid_argument] on odd length or non-hex characters. *)
