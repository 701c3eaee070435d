open Bp_kernel
open Bp_geometry
module Image = Bp_image.Image
module Token = Bp_token.Token

(* Interned success values: a fresh [Some fired] per firing would be
   a steady five-word allocation on the simulator's hottest path. *)
let fired_emit =
  Some { Behaviour.method_name = "emit"; cycles = 0 }

(* The worst-case burst of one scheduled emission: the last pixel of a
   frame is followed by its end-of-line and end-of-frame tokens in the
   same firing. The behaviour requires this much space on every emission
   (a conservative, position-independent guard, so an emission never
   half-completes), and declares it in the spec so the simulator can tell
   a space-blocked source from an exhausted one exactly. *)
let emission_burst = 3

let spec ?(emit_eol = true) ?(class_name = "Input") ~frame ~frames () =
  List.iter
    (fun img ->
      if not (Size.equal (Image.size img) frame) then
        Bp_util.Err.invalidf "source frame extent mismatch: got %s, want %s"
          (Size.to_string (Image.size img))
          (Size.to_string frame))
    frames;
  let make_behaviour () =
    let remaining = ref frames in
    let x = ref 0 and y = ref 0 and frame_idx = ref 0 in
    let try_step (io : Behaviour.io) =
      match !remaining with
      | [] -> None
      | img :: rest ->
        (* One emission may carry pixel + EOL + EOF. *)
        if io.space "out" < emission_burst then None
        else begin
          let pixel = io.acquire Size.one in
          (* Raw move: the source fires once per pixel, so a boxed
             get/set pair here costs four words per event. *)
          Array.unsafe_set (Image.unsafe_data pixel) 0
            (Array.unsafe_get (Image.unsafe_data img)
               ((!y * frame.Size.w) + !x));
          io.push "out" (Item.data pixel);
          let end_of_row = !x = frame.Size.w - 1 in
          let end_of_frame = end_of_row && !y = frame.Size.h - 1 in
          if end_of_row && emit_eol then
            io.push "out" (Item.ctl (Token.eol !y));
          if end_of_frame then begin
            io.push "out" (Item.ctl (Token.eof !frame_idx));
            x := 0;
            y := 0;
            incr frame_idx;
            remaining := rest
          end
          else if end_of_row then begin
            x := 0;
            incr y
          end
          else incr x;
          fired_emit
        end
    in
    (* Sources are self-driven emitters: the event queue, not a decline
       oracle, schedules them. *)
    Behaviour.v try_step
  in
  Spec.v ~role:Spec.Source ~class_name ~emission_burst ~inputs:[]
    ~outputs:[ Port.output "out" Window.pixel ]
    ~methods:[] ~make_behaviour ()

let const ?(class_name = "Const") ~chunk () =
  let size = Image.size chunk in
  let window = Window.v ~step:(Step.of_size size) size in
  let make_behaviour () =
    let sent = ref false in
    let try_step (io : Behaviour.io) =
      if !sent then None
      else if io.space "out" < 1 then None
      else begin
        io.push "out" (Item.data (Image.copy chunk));
        sent := true;
        fired_emit
      end
    in
    Behaviour.v try_step
  in
  Spec.v ~role:Spec.Const_source ~class_name ~inputs:[]
    ~outputs:[ Port.output "out" window ]
    ~methods:[] ~make_behaviour ()
