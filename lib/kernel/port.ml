open Bp_util
open Bp_geometry

type t = { name : string; window : Window.t; replicated : bool }

let input ?(replicated = false) name window = { name; window; replicated }
let output name window = { name; window; replicated = false }
let buffer_words t = 2 * Size.area t.window.Window.size

let find ports name =
  match List.find_opt (fun p -> String.equal p.name name) ports with
  | Some p -> p
  | None -> Err.graphf "no port named %S" name
