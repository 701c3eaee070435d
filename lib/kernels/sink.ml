open Bp_kernel
module Token = Bp_token.Token

(* Interned success values: a fresh [Some fired] per firing would be
   a steady five-word allocation on the simulator's hottest path. *)
let fired_consume =
  Some { Behaviour.method_name = "consume"; cycles = 0 }


type collector = {
  mutable closed_groups : Bp_image.Image.t list list;  (* newest first *)
  mutable current_group : Bp_image.Image.t list;  (* newest first *)
}

let collector () = { closed_groups = []; current_group = [] }

let reset c =
  c.closed_groups <- [];
  c.current_group <- []

let chunks c =
  (* groups are stored newest-first both between and within groups *)
  List.rev c.current_group :: List.map List.rev c.closed_groups
  |> List.rev |> List.concat

let chunks_between_frames c =
  let groups = List.rev_map List.rev c.closed_groups in
  if c.current_group = [] then groups else groups @ [ List.rev c.current_group ]

let spec ?(class_name = "Output") ~window c () =
  let make_behaviour () =
    reset c;
    let try_step (io : Behaviour.io) =
      match io.peek "in" with
      | None -> None
      | Some _ ->
        (match io.pop "in" with
        | Item.Data img -> c.current_group <- img :: c.current_group
        | Item.Ctl tok ->
          if tok.Token.kind = Token.End_of_frame then begin
            c.closed_groups <- c.current_group :: c.closed_groups;
            c.current_group <- []
          end);
        fired_consume
    in
    let starved (io : Behaviour.io) = not (io.has_input "in") in
    Behaviour.v ~starved try_step
  in
  Spec.v ~role:Spec.Sink ~class_name
    ~inputs:[ Port.input "in" window ]
    ~outputs:[] ~methods:[] ~make_behaviour ()
