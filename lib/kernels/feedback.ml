open Bp_kernel
open Bp_geometry
module Image = Bp_image.Image
module Err = Bp_util.Err

(* Interned success values: a fresh [Some fired] per firing would be
   a steady five-word allocation on the simulator's hottest path. *)
let fired_emitInitial =
  Some { Behaviour.method_name = "emitInitial"; cycles = 1 }
let fired_forward =
  Some { Behaviour.method_name = "forward"; cycles = 1 }
let fired_dropToken =
  Some { Behaviour.method_name = "dropToken"; cycles = 1 }
let fired_forwardToken =
  Some { Behaviour.method_name = "forwardToken"; cycles = 1 }


let init ?(class_name = "Loop Init") ~window ~initial () =
  List.iter
    (fun img ->
      if not (Size.equal (Image.size img) window.Window.size) then
        Err.invalidf "feedback init: initial chunk %s does not match %s"
          (Size.to_string (Image.size img))
          (Size.to_string window.Window.size))
    initial;
  let make_behaviour () =
    let pending = ref (List.map Image.copy initial) in
    let try_step (io : Behaviour.io) =
      match !pending with
      | chunk :: rest ->
        if io.space "out" < 1 then None
        else begin
          io.push "out" (Item.data chunk);
          pending := rest;
          fired_emitInitial
        end
      | [] -> (
        match io.peek "in" with
        | None -> None
        | Some (Item.Data _) ->
          if io.space "out" < 1 then None
          else begin
            io.push "out" (Item.data (Behaviour.pop_data io "in"));
            fired_forward
          end
        | Some (Item.Ctl _) ->
          (* Tokens do not recirculate around the loop. *)
          ignore (io.pop "in");
          fired_dropToken)
    in
    (* Self-driven while initial chunks remain; input-driven after. *)
    let starved (io : Behaviour.io) =
      !pending = [] && not (io.has_input "in")
    in
    Behaviour.v ~starved try_step
  in
  Spec.v ~role:Spec.Replicate ~class_name ~parallelization:Spec.Serial
    ~state_words:(Size.area window.Window.size * max 1 (List.length initial))
    ~inputs:[ Port.input "in" window ]
    ~outputs:[ Port.output "out" window ]
    ~methods:[] ~make_behaviour ()

let loop_combine ?(class_name = "Loop Combine") ?(cycles = 4) f =
  let fired_combine = Some { Behaviour.method_name = "combine"; cycles } in
  let make_behaviour () =
    let try_step (io : Behaviour.io) =
      match io.peek "in0" with
      | None -> None
      | Some (Item.Ctl tok) ->
        (* Forward-path tokens pass straight through; the feedback input
           carries none. *)
        if io.space "out" < 1 then None
        else begin
          ignore (io.pop "in0");
          io.push "out" (Item.ctl tok);
          fired_forwardToken
        end
      | Some (Item.Data _) -> (
        match io.peek "in1" with
        | Some (Item.Data _) when io.space "out" >= 1 ->
          let a = Behaviour.pop_data io "in0" in
          let b = Behaviour.pop_data io "in1" in
          let out = io.acquire (Image.size a) in
          Image.map2_into f a b ~dst:out;
          io.push "out" (Item.data out);
          io.release a;
          io.release b;
          fired_combine
        | Some (Item.Ctl _) ->
          Err.graphf "%s: unexpected token on the feedback input" class_name
        | Some (Item.Data _) | None -> None)
    in
    (* Every branch starts from the in0 front, so an empty in0 is a
       guaranteed decline (in1 alone can never trigger a firing). *)
    let starved (io : Behaviour.io) = not (io.has_input "in0") in
    Behaviour.v ~starved try_step
  in
  let methods =
    [
      Method_spec.on_data ~cycles ~name:"combine" ~inputs:[ "in0"; "in1" ]
        ~outputs:[ "out" ] ();
    ]
  in
  Spec.v ~class_name ~parallelization:Spec.Serial
    ~inputs:
      [ Port.input "in0" Window.pixel; Port.input "in1" Window.pixel ]
    ~outputs:[ Port.output "out" Window.pixel ]
    ~methods ~make_behaviour ()
