(** The bench harness's JSON: one value type, its printer and its parser.

    Every file the harness writes is printed from a {!t}, and every file
    it reads back (the [--compare] baseline, the test suite's pinned
    baseline) is parsed into one, so the format is decided here alone.
    The printer emits no whitespace and prints floats as [%.6f]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Malformed of string
(** Raised by the printer on a non-finite float, and by the parser and
    the accessors on input that is not what the caller expects. *)

val to_string : t -> string

val of_string : string -> t
(** Parses one JSON value; a number without a fraction or exponent is
    an {!Int}. Only ASCII [\u] escapes are decoded; others read as [?]. *)

val write : string -> t -> unit
(** [write file v] prints [v] and a newline to [file]. *)

val read : string -> t
(** [read file] parses the whole of [file]. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** The value of a key of an object; [None] for a missing key or a
    non-object. *)

val num : t -> float
(** An {!Int} or {!Float} as a float. *)

val str : t -> string
(** The contents of a {!String}. *)
