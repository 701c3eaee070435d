open Bp_util

type io = {
  peek : string -> Item.t option;
  pop : string -> Item.t;
  push : string -> Item.t -> unit;
  space : string -> int;
  acquire : Bp_geometry.Size.t -> Bp_image.Image.t;
  release : Bp_image.Image.t -> unit;
  has_input : string -> bool;
}

type fired = { method_name : string; cycles : int }

type t = {
  try_step : io -> fired option;
  starved : (io -> bool) option;
}

let v ?starved try_step = { try_step; starved }

let forward_method_name = "<forward-token>"

type alloc = Bp_geometry.Size.t -> Bp_image.Image.t

type data_run =
  alloc:alloc ->
  inputs:Bp_image.Image.t array ->
  outputs:Bp_image.Image.t array ->
  unit

(* Sentinel filling the scratch arrays between firings: a body that leaves
   an output slot physically equal to [no_image] produced nothing there.
   Never pushed, never released. *)
let no_image = Bp_image.Image.create Bp_geometry.Size.one

type token_run =
  alloc:alloc -> Bp_token.Token.t -> (string * Bp_image.Image.t) list

let pop_data io input =
  match io.pop input with
  | Item.Data img -> img
  | Item.Ctl tok ->
    Err.graphf "expected data on %S, found token %s" input
      (Bp_token.Token.to_string tok)

let front_is_data io input =
  match io.peek input with Some (Item.Data _) -> true | _ -> false

let front_token io input =
  match io.peek input with Some (Item.Ctl tok) -> Some tok | _ -> None

(* The helpers below are written as top-level recursions rather than
   List closures on purpose: a closure that captures [io] or a chunk
   list is allocated afresh on every firing, and the firing path is the
   simulator's innermost loop. *)

let rec check_declared name outs = function
  | [] -> ()
  | (out, _) :: rest ->
    if not (List.mem out outs) then
      Err.graphf "method %s wrote undeclared output %S" name out;
    check_declared name outs rest

let rec push_declared io results = function
  | [] -> ()
  | out :: rest ->
    (match List.assoc_opt out results with
    | Some chunk -> io.push out (Item.data chunk)
    | None -> ());
    push_declared io results rest

(* Push the chunks a method body returned, in the method's declared output
   order, validating that the body only wrote declared outputs. *)
let push_results io (m : Method_spec.t) results =
  check_declared m.Method_spec.name m.Method_spec.outputs results;
  push_declared io results m.Method_spec.outputs

(* The fronts of a method's trigger inputs, or None when a queue is empty. *)
let rec fronts_collect io acc = function
  | [] -> Some (List.rev acc)
  | input :: rest -> (
    match io.peek input with
    | None -> None
    | Some item -> fronts_collect io ((input, item) :: acc) rest)

let fronts io inputs = fronts_collect io [] inputs

let all_data items = List.for_all (fun (_, item) -> Item.is_data item) items

let matching_token items =
  match items with
  | [] -> None
  | (_, first) :: rest -> (
    match first with
    | Item.Data _ -> None
    | Item.Ctl tok ->
      let same (_, item) =
        match item with
        | Item.Ctl t -> Bp_token.Token.kind_equal t.kind tok.kind
        | Item.Data _ -> false
      in
      if List.for_all same rest then Some tok else None)

let rec space_ok io need = function
  | [] -> true
  | out :: rest -> io.space out >= need && space_ok io need rest

let rec pop_all io = function
  | [] -> ()
  | (input, _) :: rest ->
    ignore (io.pop input);
    pop_all io rest

let rec push_token io tok = function
  | [] -> ()
  | out :: rest ->
    io.push out (Item.ctl tok);
    push_token io tok rest


(* A data method with its trigger-input list, success value, body and
   scratch arrays resolved once at kernel construction (all would
   otherwise be rebuilt — and the [Some fired] allocated — on every
   firing). *)
type prepared = {
  pm : Method_spec.t;
  pm_inputs : string list;
  pm_fired : fired option;
  pm_body : data_run;
  pm_in_scratch : Bp_image.Image.t array;  (* one slot per trigger input *)
  pm_out_scratch : Bp_image.Image.t array;  (* one slot per declared output *)
}

(* Whether [img] occurs physically in [arr] — the pass-through test that
   keeps a forwarded input from being released. Top-level recursion: no
   per-firing closure. *)
let rec phys_mem_scratch img (arr : Bp_image.Image.t array) j =
  j < Array.length arr && (arr.(j) == img || phys_mem_scratch img arr (j + 1))

let iteration_kernel ?(token_forward_cycles = 2) ~methods ~run
    ?(token_run = fun _ ~alloc:_ _ -> []) () =
  let interned =
    List.map
      (fun (m : Method_spec.t) ->
        ( m,
          Some { method_name = m.Method_spec.name; cycles = m.Method_spec.cycles }
        ))
      methods
  in
  let fired_of m = List.assq m interned in
  let data_methods =
    List.filter_map
      (fun (m : Method_spec.t) ->
        match m.Method_spec.trigger with
        | Method_spec.On_data inputs ->
          Some
            {
              pm = m;
              pm_inputs = inputs;
              pm_fired = fired_of m;
              pm_body = run m.Method_spec.name;
              pm_in_scratch = Array.make (List.length inputs) no_image;
              pm_out_scratch =
                Array.make (List.length m.Method_spec.outputs) no_image;
            }
        | Method_spec.On_token _ -> None)
      methods
  in
  let forward_fired =
    Some { method_name = forward_method_name; cycles = token_forward_cycles }
  in
  let token_handler inputs kind =
    List.find_opt
      (fun (m : Method_spec.t) ->
        match m.Method_spec.trigger with
        | Method_spec.On_token (input, k) ->
          List.mem input inputs && Bp_token.Token.kind_equal k kind
        | Method_spec.On_data _ -> false)
      methods
  in
  let try_data_method io (p : prepared) items =
    if not (space_ok io 1 p.pm.Method_spec.outputs) then None
    else begin
      let ins = p.pm_in_scratch and outs = p.pm_out_scratch in
      let rec fill i = function
        | [] -> ()
        | (input, _) :: rest ->
          ins.(i) <- Item.chunk_exn (io.pop input);
          fill (i + 1) rest
      in
      fill 0 items;
      p.pm_body ~alloc:io.acquire ~inputs:ins ~outputs:outs;
      let rec push j = function
        | [] -> ()
        | out :: rest ->
          if outs.(j) != no_image then io.push out (Item.data outs.(j));
          push (j + 1) rest
      in
      push 0 p.pm.Method_spec.outputs;
      (* Popped chunks the body did not forward onward are dead: return
         them to the pool. The physical-equality check keeps pass-through
         bodies (decimate) from releasing a chunk whose ownership they just
         transferred by storing it into an output slot. *)
      for i = 0 to Array.length ins - 1 do
        let img = ins.(i) in
        if not (phys_mem_scratch img outs 0) then io.release img;
        ins.(i) <- no_image
      done;
      for j = 0 to Array.length outs - 1 do
        outs.(j) <- no_image
      done;
      p.pm_fired
    end
  in
  let try_token io (p : prepared) items (tok : Bp_token.Token.t) =
    match token_handler p.pm_inputs tok.kind with
    | Some h ->
      (* A handler may emit one chunk per output plus the forwarded token. *)
      if not (space_ok io 2 h.Method_spec.outputs) then None
      else begin
        pop_all io items;
        push_results io h (token_run h.Method_spec.name ~alloc:io.acquire tok);
        if h.Method_spec.forward_token then
          push_token io tok h.Method_spec.outputs;
        fired_of h
      end
    | None ->
      if not (space_ok io 1 p.pm.Method_spec.outputs) then None
      else begin
        pop_all io items;
        push_token io tok p.pm.Method_spec.outputs;
        forward_fired
      end
  in
  let rec attempt io = function
    | [] -> None
    | p :: rest -> (
      match fronts io p.pm_inputs with
      | None -> attempt io rest
      | Some items -> (
        if all_data items then
          match try_data_method io p items with
          | Some _ as f -> f
          | None -> attempt io rest
        else
          match matching_token items with
          | Some tok -> (
            match try_token io p items tok with
            | Some _ as f -> f
            | None -> attempt io rest)
          | None ->
            (* Mixed fronts: wait for the streams to re-align. *)
            attempt io rest))
  in
  let try_step io = attempt io data_methods in
  (* An iteration kernel fires only off its queue fronts: every firing —
     data, token dispatch, or token forward — starts from a method whose
     trigger inputs are all non-empty. So when each data method is missing
     at least one trigger front, [try_step] provably declines without being
     called. This is the exact decline oracle wake elision uses
     (docs/PERFORMANCE.md §Quasi-static execution). *)
  let rec any_method_armed io = function
    | [] -> false
    | p :: rest ->
      let rec all_present = function
        | [] -> true
        | input :: more -> io.has_input input && all_present more
      in
      all_present p.pm_inputs || any_method_armed io rest
  in
  let starved io = not (any_method_armed io data_methods) in
  { try_step; starved = Some starved }
