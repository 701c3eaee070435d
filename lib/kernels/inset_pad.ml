open Bp_kernel
open Bp_geometry
module Image = Bp_image.Image
module Token = Bp_token.Token
module Err = Bp_util.Err

(* Interned success values: a fresh [Some fired] per firing would be
   a steady five-word allocation on the simulator's hottest path. *)
let fired_filter =
  Some { Behaviour.method_name = "filter"; cycles = Costs.inset }
let fired_consumeEol =
  Some { Behaviour.method_name = "consumeEol"; cycles = 1 }
let fired_emitEof =
  Some { Behaviour.method_name = "emitEof"; cycles = 2 }
let fired_forwardUser =
  Some { Behaviour.method_name = "forwardUser"; cycles = 1 }
let fired_consumeToken =
  Some { Behaviour.method_name = "consumeToken"; cycles = 1 }
let fired_emitPad =
  Some { Behaviour.method_name = "emitPad"; cycles = Costs.pad }
let fired_forward =
  Some { Behaviour.method_name = "forward"; cycles = Costs.pad }


let inset ?class_name ?(chunk = Window.pixel) ~grid ~left ~right ~top ~bottom
    () =
  if left < 0 || right < 0 || top < 0 || bottom < 0 then
    Err.invalidf "inset margins must be non-negative";
  if left + right >= grid.Size.w || top + bottom >= grid.Size.h then
    Err.invalidf "inset margins (%d,%d,%d,%d) consume the whole %s grid" left
      right top bottom (Size.to_string grid);
  let class_name =
    Option.value class_name
      ~default:
        (Printf.sprintf "Inset (%d,%d)[%d,%d,%d,%d]" grid.Size.w grid.Size.h
           left right top bottom)
  in
  let make_behaviour () =
    let x = ref 0 and y = ref 0 and frame_idx = ref 0 in
    let keep_now () =
      !x >= left
      && !x < grid.Size.w - right
      && !y >= top
      && !y < grid.Size.h - bottom
    in
    let advance_cursor () =
      x := !x + 1;
      if !x = grid.Size.w then begin
        x := 0;
        y := !y + 1
      end
    in
    let try_step (io : Behaviour.io) =
      match io.peek "in" with
      | None -> None
      | Some (Item.Data _) ->
        let keep = keep_now () in
        if keep && io.space "out" < 1 then None
        else begin
          let img = Behaviour.pop_data io "in" in
          if keep then io.push "out" (Item.data img)
          else io.release img;
          advance_cursor ();
          fired_filter
        end
      | Some (Item.Ctl tok) -> (
        match tok.Token.kind with
        | Token.End_of_line ->
          ignore (io.pop "in");
          fired_consumeEol
        | Token.End_of_frame ->
          if io.space "out" < 1 then None
          else begin
            ignore (io.pop "in");
            io.push "out" (Item.ctl (Token.eof !frame_idx));
            x := 0;
            y := 0;
            incr frame_idx;
            fired_emitEof
          end
        | Token.User _ ->
          if io.space "out" < 1 then None
          else begin
            ignore (io.pop "in");
            io.push "out" (Item.ctl tok);
            fired_forwardUser
          end)
    in
    let starved (io : Behaviour.io) = not (io.has_input "in") in
    Behaviour.v ~starved try_step
  in
  Spec.v ~role:Spec.Inset ~class_name ~parallelization:Spec.Serial
    ~inputs:[ Port.input "in" chunk ]
    ~outputs:[ Port.output "out" chunk ]
    ~methods:[] ~make_behaviour ()

let pad ?class_name ?(value = 0.) ~frame ~left ~right ~top ~bottom () =
  if left < 0 || right < 0 || top < 0 || bottom < 0 then
    Err.invalidf "pad margins must be non-negative";
  let out_w = frame.Size.w + left + right in
  let out_h = frame.Size.h + top + bottom in
  let class_name =
    Option.value class_name
      ~default:(Printf.sprintf "Pad [%d,%d,%d,%d]" left right top bottom)
  in
  let make_behaviour () =
    (* Cursor over the *padded* grid; positions inside the original frame
       require an input pixel, margin positions emit the constant. *)
    let ox = ref 0 and oy = ref 0 and frame_idx = ref 0 in
    let in_margin () =
      !ox < left
      || !ox >= left + frame.Size.w
      || !oy < top
      || !oy >= top + frame.Size.h
    in
    let advance io =
      let end_of_row = !ox = out_w - 1 in
      let end_of_frame = end_of_row && !oy = out_h - 1 in
      if end_of_row then begin
        io.Behaviour.push "out" (Item.ctl (Token.eol !oy));
        ox := 0;
        if end_of_frame then begin
          io.Behaviour.push "out" (Item.ctl (Token.eof !frame_idx));
          oy := 0;
          incr frame_idx
        end
        else oy := !oy + 1
      end
      else ox := !ox + 1;
      end_of_frame
    in
    let seen_input = ref false in
    let try_step (io : Behaviour.io) =
      match io.peek "in" with
      (* Input tokens are informational here — the output schedule below
         emits this kernel's own tokens for the padded geometry — so they
         are consumed eagerly whenever they reach the front. *)
      | Some (Item.Ctl { Token.kind = Token.End_of_line | Token.End_of_frame; _ })
        ->
        ignore (io.pop "in");
        fired_consumeToken
      | Some (Item.Ctl tok) ->
        if io.space "out" < 1 then None
        else begin
          ignore (io.pop "in");
          io.push "out" (Item.ctl tok);
          fired_forwardUser
        end
      | (Some (Item.Data _) | None) as front ->
        if io.space "out" < 3 then None
        else if in_margin () then
          (* Only emit margins of a frame whose data has started arriving,
             otherwise an exhausted input would trigger margins of a frame
             that never comes. *)
          if !seen_input || front <> None then begin
            let px = io.acquire Size.one in
            Image.set px ~x:0 ~y:0 value;
            io.push "out" (Item.data px);
            if advance io then seen_input := false;
            fired_emitPad
          end
          else None
        else (
          match front with
          | None -> None
          | Some _ ->
            let img = Behaviour.pop_data io "in" in
            seen_input := true;
            io.push "out" (Item.data img);
            if advance io then seen_input := false;
            fired_forward)
    in
    (* The padder can self-fire margin pixels of an in-flight frame, so it
       is only provably starved when the input is empty AND the cursor is
       not on a margin position of a started frame. *)
    let starved (io : Behaviour.io) =
      (not (io.has_input "in")) && not (!seen_input && in_margin ())
    in
    Behaviour.v ~starved try_step
  in
  Spec.v ~role:Spec.Pad ~class_name ~parallelization:Spec.Serial
    ~inputs:[ Port.input "in" Window.pixel ]
    ~outputs:[ Port.output "out" Window.pixel ]
    ~methods:[] ~make_behaviour ()
