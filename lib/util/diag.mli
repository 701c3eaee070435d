(** Accumulating compiler diagnostics.

    The historical compiler reported problems exclusively by raising
    {!Err.Error}, which aborts at the first issue and carries no
    provenance. This module is the accumulating half of the error story:
    passes append structured diagnostics — severity, the pass that spoke,
    the graph entity concerned — into a {!buffer} as they run, and
    {!Err.Error} is raised only at the pass barrier (by
    {!Bp_compiler.Pass.run_all}) once the failing pass has been recorded.

    Ordering is insertion order and therefore deterministic for a
    deterministic compile; [bpc compile --explain] prints the list and a
    test pins the determinism. *)

type severity = Info | Warning | Error

type subject =
  | Whole_graph  (** About the program as a whole. *)
  | Node of string  (** A kernel, by graph node name. *)
  | Channel of int  (** A channel, by channel id. *)

type t = {
  severity : severity;
  pass : string;  (** The compile pass that emitted the diagnostic. *)
  subject : subject;
  message : string;
}

val severity_name : severity -> string
(** ["info" | "warning" | "error"]. *)

val v : severity -> pass:string -> ?subject:subject -> string -> t
(** Build one diagnostic. [subject] defaults to {!Whole_graph}. *)

(** {1 Accumulation} *)

type buffer
(** A mutable append-only accumulator. *)

val buffer : unit -> buffer

val add : buffer -> t -> unit

val addf :
  buffer ->
  severity ->
  pass:string ->
  ?subject:subject ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** Format and append. *)

val list : buffer -> t list
(** All diagnostics, in insertion order. *)

(** {1 Queries and rendering} *)

val errors : t list -> t list
(** The error-severity subset, order preserved. *)

val to_string : t -> string
(** One line: ["error[align] kernel '3x3 Median': ..."]. *)

val pp : Format.formatter -> t -> unit
val pp_list : Format.formatter -> t list -> unit
