open Bp_util

type trigger = On_data of string list | On_token of string * Bp_token.Token.kind

type t = {
  name : string;
  trigger : trigger;
  outputs : string list;
  cycles : int;
  forward_token : bool;
}

let check_inputs name inputs =
  if inputs = [] then Err.invalidf "method %s: empty trigger input list" name;
  let sorted = List.sort_uniq String.compare inputs in
  if List.length sorted <> List.length inputs then
    Err.invalidf "method %s: duplicate trigger inputs" name

let on_data ?(cycles = 1) ~name ~inputs ~outputs () =
  check_inputs name inputs;
  if cycles < 0 then Err.invalidf "method %s: negative cycles" name;
  { name; trigger = On_data inputs; outputs; cycles; forward_token = true }

let on_token ?(cycles = 1) ?(forward_token = true) ~name ~input ~kind ~outputs
    () =
  if cycles < 0 then Err.invalidf "method %s: negative cycles" name;
  { name; trigger = On_token (input, kind); outputs; cycles; forward_token }

let trigger_inputs t =
  match t.trigger with On_data inputs -> inputs | On_token (i, _) -> [ i ]
