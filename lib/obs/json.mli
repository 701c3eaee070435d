(** A minimal JSON value and serializer.

    The observability layer emits machine-readable artifacts (metrics
    snapshots, Chrome [trace_event] files) without pulling a JSON library
    into the dependency cone. A small strict parser ({!parse}) covers the
    subset the writer emits, so the benchmark's regression gate can read
    a committed baseline back. Serialization is strict RFC 8259: strings are
    escaped, non-finite floats become [null] (JSON has no representation
    for them), and numbers render in a form Python's [json] module and
    Perfetto both accept. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val float : float -> t
(** [Float f], except non-finite values map to [Null]. *)

val to_string : t -> string
(** Compact (single-line) rendering. *)

val write_file : path:string -> t -> unit
(** Serialize to [path] with a trailing newline. *)

exception Parse_error of string

val parse : string -> t
(** Strict recursive-descent parse of one JSON value (raises
    {!Parse_error}). Integers that fit an OCaml [int] become [Int];
    other numbers become [Float]. Trailing non-whitespace input is an
    error. *)

val parse_file : string -> t
(** {!parse} the entire contents of a file. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing keys and non-objects. *)

val to_float_opt : t -> float option
(** Numeric coercion of [Int]/[Float]; [None] otherwise. *)
