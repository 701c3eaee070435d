type severity = Info | Warning | Error

type subject =
  | Whole_graph
  | Node of string
  | Channel of int

type t = {
  severity : severity;
  pass : string;
  subject : subject;
  message : string;
}

let severity_name = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let v severity ~pass ?(subject = Whole_graph) message =
  { severity; pass; subject; message }

type buffer = { mutable rev : t list; mutable n : int }

let buffer () = { rev = []; n = 0 }

let add b d =
  b.rev <- d :: b.rev;
  b.n <- b.n + 1

let addf b severity ~pass ?subject fmt =
  Format.kasprintf (fun message -> add b (v severity ~pass ?subject message)) fmt

let list b = List.rev b.rev
let errors ds = List.filter (fun d -> d.severity = Error) ds

let subject_string = function
  | Whole_graph -> ""
  | Node n -> Printf.sprintf " kernel '%s':" n
  | Channel id -> Printf.sprintf " channel %d:" id

let to_string d =
  Printf.sprintf "%s[%s]%s %s" (severity_name d.severity) d.pass
    (subject_string d.subject)
    d.message

let pp ppf d = Format.pp_print_string ppf (to_string d)

let pp_list ppf ds =
  List.iter (fun d -> Format.fprintf ppf "%a@," pp d) ds
