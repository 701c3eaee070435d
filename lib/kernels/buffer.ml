open Bp_kernel
open Bp_geometry
module Image = Bp_image.Image
module Token = Bp_token.Token
module Err = Bp_util.Err

(* Interned success values: a fresh [Some fired] per firing would be
   a steady five-word allocation on the simulator's hottest path. *)
let fired_emitWindow =
  Some { Behaviour.method_name = "emitWindow"; cycles = Costs.buffer_store }
let fired_storeBlock =
  Some { Behaviour.method_name = "storeBlock"; cycles = Costs.buffer_store }
let fired_consumeEol =
  Some { Behaviour.method_name = "consumeEol"; cycles = 1 }
let fired_consumeEof =
  Some { Behaviour.method_name = "consumeEof"; cycles = 2 }
let fired_forwardUser =
  Some { Behaviour.method_name = "forwardUser"; cycles = 1 }


type config = {
  in_block : Size.t;
  out_window : Window.t;
  frame : Size.t;
  emit_eol : bool;
}

let config ?(emit_eol = false) ?(in_block = Size.one) ~out_window ~frame () =
  if frame.Size.w mod in_block.Size.w <> 0
     || frame.Size.h mod in_block.Size.h <> 0 then
    Err.invalidf "buffer: block %s does not tile frame %s"
      (Size.to_string in_block) (Size.to_string frame);
  if not (Size.fits_within out_window.Window.size frame) then
    Err.invalidf "buffer: window %s larger than frame %s"
      (Size.to_string out_window.Window.size)
      (Size.to_string frame);
  { in_block; out_window; frame; emit_eol }

let rows cfg =
  2 * max cfg.in_block.Size.h cfg.out_window.Window.size.Size.h

let storage cfg = Size.v cfg.frame.Size.w (rows cfg)
let storage_words cfg = Size.area (storage cfg)
let iterations cfg = Window.iterations cfg.out_window ~frame:cfg.frame

let default_class_name cfg =
  let s = storage cfg in
  Format.asprintf "Buffer [%dx%d] (%dx%d)->%a" s.Size.w s.Size.h
    cfg.in_block.Size.w cfg.in_block.Size.h Size.pp
    cfg.out_window.Window.size

(* Mutable per-instance state of the circular row store. *)
type state = {
  store : float array array;  (* rows (circular) x frame width *)
  row_ids : int array;  (* which global row each slot currently holds *)
  mutable blocks_in : int;  (* input blocks received this frame *)
  mutable wx : int;  (* next output window origin, in window-index space *)
  mutable wy : int;
  mutable frame_idx : int;
  mutable need_block : int;
      (* index of the input block containing the pending window's
         bottom-right pixel — recomputed only when the cursor moves, so
         the per-attempt availability test is two compares *)
}

let make_state cfg =
  let r = rows cfg in
  {
    store = Array.make_matrix r cfg.frame.Size.w 0.;
    row_ids = Array.make r (-1);
    blocks_in = 0;
    wx = 0;
    wy = 0;
    frame_idx = 0;
    need_block = 0;
  }

let spec ?class_name cfg =
  let class_name =
    Option.value class_name ~default:(default_class_name cfg)
  in
  let fw = cfg.frame.Size.w in
  let bw = cfg.in_block.Size.w and bh = cfg.in_block.Size.h in
  let blocks_per_row = fw / bw in
  let iter = iterations cfg in
  let win = cfg.out_window.Window.size in
  let sx = cfg.out_window.Window.step.Step.sx
  and sy = cfg.out_window.Window.step.Step.sy in
  let in_window = Window.v ~step:(Step.of_size cfg.in_block) cfg.in_block in
  let make_behaviour () =
    let st = make_state cfg in
    let r = rows cfg in
    (* Is the next pending output window fully arrived? Scan-line arrival
       means availability reduces to: has the block containing the window's
       bottom-right pixel arrived. The block index is memoized in
       [st.need_block] — this test sits inside the starvation oracle,
       so it runs on every attempt. *)
    let update_need_block () =
      let ox = st.wx * sx and oy = st.wy * sy in
      let last_x = ox + win.Size.w - 1 and last_y = oy + win.Size.h - 1 in
      st.need_block <- ((last_y / bh) * blocks_per_row) + (last_x / bw)
    in
    update_need_block ();
    let window_available () =
      st.wy < iter.Size.h && st.blocks_in > st.need_block
    in
    (* Row copies go through [Array.blit] on the raw scan lines: the
       buffer moves every pixel of every window, and per-pixel accessor
       calls would box a float each (no flambda). *)
    let checked_slot y =
      let slot = y mod r in
      if st.row_ids.(slot) <> y then
        Err.graphf
          "buffer %s: row %d was overwritten before use (storage too small)"
          class_name y;
      slot
    in
    let store_block ~bx ~by img =
      let src = Image.unsafe_data img in
      for j = 0 to bh - 1 do
        let y = (by * bh) + j in
        let slot = y mod r in
        if st.row_ids.(slot) <> y then begin
          st.row_ids.(slot) <- y;
          Array.fill st.store.(slot) 0 fw 0.
        end;
        Array.blit src (j * bw) st.store.(slot) (bx * bw) bw
      done
    in
    let try_step (io : Behaviour.io) =
      (* Emit-first: drain pending windows before accepting more input so
         the circular store never needs more than its sized capacity. *)
      if window_available () then begin
        if io.space "out" < 3 then None
        else begin
          let ox = st.wx * sx and oy = st.wy * sy in
          let out = io.acquire win in
          let out_d = Image.unsafe_data out in
          for y = 0 to win.Size.h - 1 do
            let slot = checked_slot (oy + y) in
            Array.blit st.store.(slot) ox out_d (y * win.Size.w) win.Size.w
          done;
          io.push "out" (Item.data out);
          let end_of_row = st.wx = iter.Size.w - 1 in
          let end_of_frame = end_of_row && st.wy = iter.Size.h - 1 in
          if end_of_row && cfg.emit_eol && not end_of_frame then
            io.push "out" (Item.ctl (Token.eol st.wy));
          if end_of_frame then begin
            if cfg.emit_eol then io.push "out" (Item.ctl (Token.eol st.wy));
            io.push "out" (Item.ctl (Token.eof st.frame_idx));
            st.wx <- 0;
            st.wy <- iter.Size.h (* frame complete; wait for input EOF *)
          end
          else if end_of_row then begin
            st.wx <- 0;
            st.wy <- st.wy + 1
          end
          else st.wx <- st.wx + 1;
          if st.wy < iter.Size.h then update_need_block ();
          fired_emitWindow
        end
      end
      else
        match io.peek "in" with
        | None -> None
        | Some (Item.Data _) ->
          let img = Behaviour.pop_data io "in" in
          if not (Size.equal (Image.size img) cfg.in_block) then
            Err.graphf "buffer %s: bad input block %s" class_name
              (Size.to_string (Image.size img));
          let bx = st.blocks_in mod blocks_per_row
          and by = st.blocks_in / blocks_per_row in
          store_block ~bx ~by img;
          io.release img;
          st.blocks_in <- st.blocks_in + 1;
          fired_storeBlock
        | Some (Item.Ctl tok) -> (
          match tok.Token.kind with
          | Token.End_of_line ->
            ignore (io.pop "in");
            fired_consumeEol
          | Token.End_of_frame ->
            (* Only consume the input EOF once every window of the frame
               has been emitted (window_available is false and the cursor
               is past the last row). *)
            if st.wy < iter.Size.h then None
            else begin
              ignore (io.pop "in");
              st.blocks_in <- 0;
              st.wx <- 0;
              st.wy <- 0;
              st.frame_idx <- st.frame_idx + 1;
              Array.fill st.row_ids 0 r (-1);
              update_need_block ();
              fired_consumeEof
            end
          | Token.User _ ->
            (* Forward user tokens in order with the data. *)
            if io.space "out" < 1 then None
            else begin
              ignore (io.pop "in");
              io.push "out" (Item.ctl tok);
              fired_forwardUser
            end)
    in
    (* Exact decline oracle: with no pending window, every branch of
       [try_step] starts from the input front — so an empty input means a
       guaranteed decline. With a window pending the buffer may self-fire
       (emit needs only output space), so it must be re-attempted. *)
    let starved (io : Behaviour.io) =
      (not (window_available ())) && not (io.has_input "in")
    in
    Behaviour.v ~starved try_step
  in
  Spec.v ~role:Spec.Buffer ~class_name ~state_words:(storage_words cfg)
    ~parallelization:Spec.Serial
    ~inputs:[ Port.input "in" in_window ]
    ~outputs:[ Port.output "out" cfg.out_window ]
    ~methods:[] ~make_behaviour ()
