(** Minimal JSON tree, printer and parser.

    The observability exporters ({!Obs.trace_json}, {!Obs.metrics_json})
    emit Chrome [trace_event] files and flat metrics dumps; nothing else in
    the dependency closure provides JSON, so this module carries just
    enough of RFC 8259 for those formats: a value tree, a deterministic
    printer (object fields in the order given, floats via ["%.12g"],
    non-finite floats as [null]), a strict recursive-descent parser used
    by the test suite and [bin/ci.sh] to smoke-check exported files, and
    the typed field decoders of the stats and bench-result schemas. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no insignificant whitespace), deterministic: equal
    trees print to equal strings. *)

val parse : string -> (t, string) result
(** Strict parse of one JSON document (trailing whitespace allowed).
    [Error msg] carries a byte offset. Numbers parse to [Int] when they
    contain no fraction/exponent and fit in [int], to [Num] otherwise;
    [\uXXXX] escapes decode to UTF-8. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on other constructors. *)

(** {1 Typed decoding}

    Field decoders for documents with a fixed schema. [ctx] names the
    enclosing object in the error text: a missing or mistyped field
    [name] of kind [k] gives [Error "ctx: missing k field \"name\""]. *)

val errorf : ('a, unit, string, ('b, string) result) format4 -> 'a
(** [Error] with a formatted message. *)

val num : string -> string -> t -> (float, string) result
(** [num ctx name v] is [v] as a float ([Int] or [Num]), else
    [Error "ctx: field \"name\" is not a number"]. *)

val num_field : string -> string -> t -> (float, string) result
(** {!num} of field [name]. *)

val int_field : string -> string -> t -> (int, string) result
val str_field : string -> string -> t -> (string, string) result
val obj_field : string -> string -> t -> ((string * t) list, string) result
val list_field : string -> string -> t -> (t list, string) result

val map_result : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** [Ok] of every element's result, or the first [Error]. *)
