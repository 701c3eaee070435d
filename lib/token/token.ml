type kind = End_of_line | End_of_frame | User of string
type t = { kind : kind; seq : int }

let eol seq = { kind = End_of_line; seq }
let eof seq = { kind = End_of_frame; seq }
let user name seq = { kind = User name; seq }

let kind_equal a b =
  match (a, b) with
  | End_of_line, End_of_line | End_of_frame, End_of_frame -> true
  | User x, User y -> String.equal x y
  | (End_of_line | End_of_frame | User _), _ -> false

let equal a b = kind_equal a.kind b.kind && a.seq = b.seq
let words _ = 1

let pp_kind ppf = function
  | End_of_line -> Format.pp_print_string ppf "EOL"
  | End_of_frame -> Format.pp_print_string ppf "EOF"
  | User s -> Format.fprintf ppf "User(%s)" s

let pp ppf t = Format.fprintf ppf "%a#%d" pp_kind t.kind t.seq
let to_string t = Format.asprintf "%a" pp t

module Bound = struct
  type budget = { kind : kind; max_per_frame : int }

  let v kind ~max_per_frame =
    if max_per_frame < 0 then
      Bp_util.Err.invalidf "token budget must be non-negative";
    { kind; max_per_frame }
end
