(* Tests for the standard kernel library, exercised one behaviour at a time
   through the bench harness — no simulator involved. *)

open Block_parallel
open Harness

(* Feed a whole frame into a buffer bench and collect the emitted windows. *)
let run_buffer cfg img =
  let b = bench (Buffer.spec cfg) in
  feed_frame b "in" img ~frame_idx:0;
  ignore (b.run_to_idle ());
  b.out "out"

let window_at img ~ox ~oy (w : Window.t) =
  Image.sub img ~x:ox ~y:oy w.Window.size

(* ---- buffer ------------------------------------------------------------ *)

let test_buffer_config_validation () =
  expect_error (Err.Invalid_parameterization "") (fun () ->
      Buffer.config ~in_block:(Size.v 3 3)
        ~out_window:(Window.windowed 3 3) ~frame:(Size.v 10 10) ());
  expect_error (Err.Invalid_parameterization "") (fun () ->
      Buffer.config ~out_window:(Window.windowed 9 9) ~frame:(Size.v 4 4) ())

let test_buffer_storage_rule () =
  (* The paper's double-buffering rule: frame width x 2*max(in_h,out_h). *)
  let cfg =
    Buffer.config ~out_window:(Conv.input_window ~w:5 ~h:5)
      ~frame:(Size.v 20 12) ()
  in
  Alcotest.check size "[20x10]" (Size.v 20 10) (Buffer.storage cfg);
  Alcotest.(check int) "words" 200 (Buffer.storage_words cfg);
  let cfg3 =
    Buffer.config ~out_window:(Window.windowed 3 3) ~frame:(Size.v 24 18) ()
  in
  Alcotest.check size "[24x6]" (Size.v 24 6) (Buffer.storage cfg3)

let test_buffer_emits_all_windows_in_order () =
  let frame = Size.v 8 6 in
  let img = Image.Gen.ramp frame in
  let w = Window.windowed 3 3 in
  let cfg = Buffer.config ~out_window:w ~frame () in
  let items = run_buffer cfg img in
  let windows = data_chunks items in
  Alcotest.(check int) "count" (6 * 4) (List.length windows);
  List.iteri
    (fun i got ->
      let ox = i mod 6 and oy = i / 6 in
      Alcotest.check image
        (Printf.sprintf "window %d" i)
        (window_at img ~ox ~oy w) got)
    windows;
  (* The buffer emits its own end-of-frame after the last window. *)
  match List.rev items with
  | Item.Ctl t :: _ ->
    Alcotest.(check bool) "trailing EOF" true (t.Token.kind = Token.End_of_frame)
  | _ -> Alcotest.fail "expected trailing EOF"

let test_buffer_downsampling () =
  let frame = Size.v 9 7 in
  let img = Image.Gen.ramp frame in
  let w = Window.v ~step:(Step.v 2 2) Size.one in
  let cfg = Buffer.config ~out_window:w ~frame () in
  let windows = data_chunks (run_buffer cfg img) in
  Alcotest.(check int) "decimated count" (5 * 4) (List.length windows);
  Alcotest.(check (float 0.)) "first pixel" (Image.get img ~x:0 ~y:0)
    (Image.get (List.hd windows) ~x:0 ~y:0);
  Alcotest.(check (float 0.)) "strided pixel" (Image.get img ~x:2 ~y:0)
    (Image.get (List.nth windows 1) ~x:0 ~y:0)

let test_buffer_multi_frame_reset () =
  let frame = Size.v 6 5 in
  let w = Window.windowed 3 3 in
  let cfg = Buffer.config ~out_window:w ~frame () in
  let b = bench (Buffer.spec cfg) in
  let f1 = Image.Gen.constant frame 1. and f2 = Image.Gen.constant frame 2. in
  feed_frame b "in" f1 ~frame_idx:0;
  feed_frame b "in" f2 ~frame_idx:1;
  ignore (b.run_to_idle ());
  let windows = data_chunks (b.out "out") in
  Alcotest.(check int) "two frames of windows" (2 * 4 * 3)
    (List.length windows);
  Alcotest.(check (float 0.)) "frame 1 content" 1.
    (Image.get (List.hd windows) ~x:0 ~y:0);
  Alcotest.(check (float 0.)) "frame 2 content" 2.
    (Image.get (List.nth windows 12) ~x:0 ~y:0)

let test_buffer_rejects_wrong_block () =
  let cfg =
    Buffer.config ~out_window:(Window.windowed 3 3) ~frame:(Size.v 6 5) ()
  in
  let b = bench (Buffer.spec cfg) in
  b.feed "in" (Item.data (Image.Gen.constant (Size.v 2 2) 0.));
  expect_error (Err.Graph_malformed "") (fun () -> b.step ())

let buffer_window_property =
  qtest ~count:60 "buffer reproduces exactly the window stream"
    QCheck2.Gen.(
      quad (int_range 1 4) (int_range 1 4) (int_range 1 3) (int_range 1 3))
    (fun (ww, wh, sx, sy) ->
      let frame = Size.v (ww + (3 * sx) + 2) (wh + (2 * sy) + 1) in
      let img = Image.Gen.ramp frame in
      let w =
        Window.v ~step:(Step.v sx sy) (Size.v ww wh)
      in
      let cfg = Buffer.config ~out_window:w ~frame () in
      let windows = data_chunks (run_buffer cfg img) in
      let iter = Window.iterations w ~frame in
      List.length windows = Size.area iter
      && List.for_all2
           (fun i got ->
             let ox = i mod iter.Size.w * sx and oy = i / iter.Size.w * sy in
             Image.equal (window_at img ~ox ~oy w) got)
           (List.init (List.length windows) Fun.id)
           windows)

(* ---- split / join ------------------------------------------------------ *)

let test_split_round_robin () =
  let b = bench (Split_join.split ~window:Window.pixel ~ways:3 ()) in
  List.iter (fun v -> b.feed "in" (px v)) [ 0.; 1.; 2.; 3.; 4. ];
  b.feed "in" (Item.ctl (Token.eof 0));
  ignore (b.run_to_idle ());
  let vals port =
    List.map (fun img -> Image.get img ~x:0 ~y:0) (data_chunks (b.out port))
  in
  Alcotest.(check (list (float 0.))) "out0" [ 0.; 3. ] (vals "out0");
  Alcotest.(check (list (float 0.))) "out1" [ 1.; 4. ] (vals "out1");
  Alcotest.(check (list (float 0.))) "out2" [ 2. ] (vals "out2")

let test_split_broadcasts_tokens () =
  let b = bench (Split_join.split ~window:Window.pixel ~ways:2 ()) in
  b.feed "in" (Item.ctl (Token.eof 0));
  ignore (b.run_to_idle ());
  Alcotest.(check int) "out0 token" 1 (List.length (b.out "out0"));
  Alcotest.(check int) "out1 token" 1 (List.length (b.out "out1"))

let test_join_round_robin () =
  let b = bench (Split_join.join ~window:Window.pixel ~ways:2 ()) in
  b.feed "in0" (px 0.);
  b.feed "in1" (px 1.);
  b.feed "in0" (px 2.);
  b.feed "in1" (px 3.);
  ignore (b.run_to_idle ());
  let vals =
    List.map (fun i -> Image.get i ~x:0 ~y:0) (data_chunks (b.out "out"))
  in
  Alcotest.(check (list (float 0.))) "interleaved" [ 0.; 1.; 2.; 3. ] vals

let test_join_merges_tokens () =
  let b = bench (Split_join.join ~window:Window.pixel ~ways:2 ()) in
  b.feed "in0" (Item.ctl (Token.eof 0));
  Alcotest.(check bool) "waits for both" true (b.step () = None);
  b.feed "in1" (Item.ctl (Token.eof 0));
  ignore (b.run_to_idle ());
  Alcotest.(check int) "merged once" 1 (List.length (b.out "out"))

let test_join_eof_resets_cursor () =
  (* 3 chunks over 2 ways: after the EOF the cursor must restart at
     branch 0 because the split restarts there too. *)
  let b = bench (Split_join.join ~window:Window.pixel ~ways:2 ()) in
  b.feed "in0" (px 0.);
  b.feed "in1" (px 1.);
  b.feed "in0" (px 2.);
  b.feed "in0" (Item.ctl (Token.eof 0));
  b.feed "in1" (Item.ctl (Token.eof 0));
  b.feed "in0" (px 10.);
  b.feed "in1" (px 11.);
  ignore (b.run_to_idle ());
  let vals =
    List.map (fun i -> Image.get i ~x:0 ~y:0) (data_chunks (b.out "out"))
  in
  Alcotest.(check (list (float 0.))) "order across frames"
    [ 0.; 1.; 2.; 10.; 11. ]
    vals

let split_join_roundtrip =
  qtest ~count:80 "split then join restores the stream"
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 40))
    (fun (ways, n) ->
      let split = bench (Split_join.split ~window:Window.pixel ~ways ()) in
      let join = bench (Split_join.join ~window:Window.pixel ~ways ()) in
      let sent = List.init n float_of_int in
      List.iter (fun v -> split.feed "in" (px v)) sent;
      split.feed "in" (Item.ctl (Token.eof 0));
      ignore (split.run_to_idle ());
      List.iteri
        (fun k _ ->
          List.iter
            (fun item -> join.feed (Printf.sprintf "in%d" k) item)
            (split.out (Printf.sprintf "out%d" k)))
        (List.init ways Fun.id);
      ignore (join.run_to_idle ());
      let got =
        List.map
          (fun i -> Image.get i ~x:0 ~y:0)
          (data_chunks (join.out "out"))
      in
      got = sent)

let test_pattern_split_runs () =
  let b =
    bench (Split_join.split ~pattern:[| 2; 1 |] ~window:Window.pixel ~ways:2 ())
  in
  List.iter (fun v -> b.feed "in" (px v)) [ 0.; 1.; 2.; 3.; 4.; 5. ];
  ignore (b.run_to_idle ());
  let vals port =
    List.map (fun i -> Image.get i ~x:0 ~y:0) (data_chunks (b.out port))
  in
  Alcotest.(check (list (float 0.))) "runs of 2" [ 0.; 1.; 3.; 4. ] (vals "out0");
  Alcotest.(check (list (float 0.))) "runs of 1" [ 2.; 5. ] (vals "out1")

let test_column_split_overlap () =
  (* Figure 10: pixels in the shared columns go to both stripes. *)
  let frame = Size.v 6 2 in
  let ranges = [| (0, 4); (2, 6) |] in
  let b = bench (Split_join.column_split ~ranges ~frame ()) in
  let img = Image.Gen.ramp frame in
  feed_frame b "in" img ~frame_idx:0;
  ignore (b.run_to_idle ());
  let count port = List.length (data_chunks (b.out port)) in
  (* stripe 0: columns 0..3 of both rows; stripe 1: columns 2..5. *)
  Alcotest.(check int) "stripe 0 pixels" 8 (count "out0");
  Alcotest.(check int) "stripe 1 pixels" 8 (count "out1")

let test_column_split_validation () =
  let frame = Size.v 6 2 in
  expect_error (Err.Invalid_parameterization "") (fun () ->
      Split_join.column_split ~ranges:[| (1, 4); (4, 6) |] ~frame ());
  expect_error (Err.Invalid_parameterization "") (fun () ->
      Split_join.column_split ~ranges:[| (0, 2); (3, 6) |] ~frame ());
  expect_error (Err.Invalid_parameterization "") (fun () ->
      Split_join.column_split ~ranges:[| (0, 4); (2, 5) |] ~frame ())

let test_stripe_ranges () =
  let window = Conv.input_window ~w:5 ~h:5 in
  let ranges = Split_join.stripe_ranges ~frame_w:20 ~window ~parts:2 in
  (* 16 window origins, split 8/8: stripe 0 covers 0..11, stripe 1 8..19,
     overlap = halo = 4 columns. *)
  Alcotest.(check (array (pair int int))) "ranges" [| (0, 12); (8, 20) |] ranges;
  let pattern = Split_join.stripe_windows_per_row ~frame_w:20 ~window ~ranges in
  Alcotest.(check (array int)) "windows/row" [| 8; 8 |] pattern

let stripe_ranges_cover =
  qtest ~count:100 "stripe ranges cover the frame and preserve window counts"
    QCheck2.Gen.(
      triple (int_range 10 80) (pair (int_range 2 6) (int_range 1 2))
        (int_range 2 5))
    (fun (frame_w, (w, sx), parts) ->
      QCheck2.assume (((frame_w - w) / sx) + 1 >= parts);
      let window = Window.v ~step:(Step.v sx 1) (Size.v w 1) in
      let ranges = Split_join.stripe_ranges ~frame_w ~window ~parts in
      let pattern =
        Split_join.stripe_windows_per_row ~frame_w ~window ~ranges
      in
      let total = Array.fold_left ( + ) 0 pattern in
      let expected = ((frame_w - w) / sx) + 1 in
      fst ranges.(0) = 0
      && snd ranges.(parts - 1) = frame_w
      && total = expected)

(* ---- inset / pad ------------------------------------------------------- *)

let test_inset_kernel () =
  let grid = Size.v 4 3 in
  let spec =
    Inset_pad.inset ~grid ~left:1 ~right:1 ~top:1 ~bottom:0 ()
  in
  let b = bench spec in
  let img = Image.Gen.ramp grid in
  feed_frame ~tokens:false b "in" img ~frame_idx:0;
  b.feed "in" (Item.ctl (Token.eof 0));
  ignore (b.run_to_idle ());
  let kept =
    List.map (fun i -> Image.get i ~x:0 ~y:0) (data_chunks (b.out "out"))
  in
  (* Rows 1..2, columns 1..2 of the 4x3 ramp. *)
  Alcotest.(check (list (float 0.))) "kept chunks" [ 5.; 6.; 9.; 10. ] kept

let test_inset_validation () =
  expect_error (Err.Invalid_parameterization "") (fun () ->
      Inset_pad.inset ~grid:(Size.v 3 3) ~left:2 ~right:1 ~top:0 ~bottom:0 ());
  expect_error (Err.Invalid_parameterization "") (fun () ->
      Inset_pad.inset ~grid:(Size.v 3 3) ~left:(-1) ~right:0 ~top:0 ~bottom:0 ())

let test_pad_kernel () =
  let frame = Size.v 2 2 in
  let spec = Inset_pad.pad ~frame ~left:1 ~right:0 ~top:1 ~bottom:0 () in
  let b = bench spec in
  let img = Image.of_scanline_list frame [ 1.; 2.; 3.; 4. ] in
  feed_frame b "in" img ~frame_idx:0;
  ignore (b.run_to_idle ());
  let vals =
    List.map (fun i -> Image.get i ~x:0 ~y:0) (data_chunks (b.out "out"))
  in
  Alcotest.(check (list (float 0.)))
    "zero-padded scanline" [ 0.; 0.; 0.; 0.; 1.; 2.; 0.; 3.; 4. ]
    vals

let pad_then_trim_identity =
  qtest ~count:60 "pad kernel then trim recovers the frame"
    QCheck2.Gen.(
      pair (pair (int_range 1 6) (int_range 1 6))
        (pair (int_range 0 2) (int_range 0 2)))
    (fun ((w, h), (l, t)) ->
      let frame = Size.v w h in
      let img = Image.Gen.ramp frame in
      let spec = Inset_pad.pad ~frame ~left:l ~right:1 ~top:t ~bottom:0 () in
      let b = bench spec in
      feed_frame b "in" img ~frame_idx:0;
      ignore (b.run_to_idle ());
      let vals =
        List.map (fun i -> Image.get i ~x:0 ~y:0) (data_chunks (b.out "out"))
      in
      let padded = Image.of_scanline_list (Size.v (w + l + 1) (h + t)) vals in
      let trimmed =
        Image_ops.trim padded ~left:l ~right:1 ~top:t ~bottom:0
      in
      Image.equal trimmed img)

(* ---- sources and sinks ------------------------------------------------- *)

let test_source_emission_order () =
  let frame = Size.v 3 2 in
  let img = Image.Gen.ramp frame in
  let spec = Source.spec ~frame ~frames:[ img ] () in
  let b = bench spec in
  ignore (b.run_to_idle ());
  let items = b.out "out" in
  (* 3 pixels, EOL, 3 pixels, EOL, EOF. *)
  Alcotest.(check int) "item count" 9 (List.length items);
  Alcotest.(check int) "pixels" 6 (List.length (data_chunks items));
  let kinds = List.map (fun t -> t.Token.kind) (tokens_of items) in
  Alcotest.(check bool) "two EOLs and one EOF" true
    (kinds = [ Token.End_of_line; Token.End_of_line; Token.End_of_frame ])

let test_source_frame_mismatch () =
  expect_error (Err.Invalid_parameterization "") (fun () ->
      Source.spec ~frame:(Size.v 3 2)
        ~frames:[ Image.Gen.ramp (Size.v 2 2) ]
        ())

let test_const_source_emits_once () =
  let chunk = Image.Gen.ramp (Size.v 2 2) in
  let b = bench (Source.const ~chunk ()) in
  Alcotest.(check int) "single step" 1 (b.run_to_idle ());
  Alcotest.(check int) "one chunk" 1 (List.length (b.out "out"));
  Alcotest.(check int) "never again" 0 (b.run_to_idle ())

let test_sink_collector_grouping () =
  let c = Sink.collector () in
  let b = bench (Sink.spec ~window:Window.pixel c ()) in
  b.feed "in" (px 1.);
  b.feed "in" (Item.ctl (Token.eof 0));
  b.feed "in" (px 2.);
  b.feed "in" (px 3.);
  b.feed "in" (Item.ctl (Token.eof 1));
  ignore (b.run_to_idle ());
  Alcotest.(check int) "chunks" 3 (List.length (Sink.chunks c));
  let groups = Sink.chunks_between_frames c in
  Alcotest.(check (list int)) "grouping" [ 1; 2 ]
    (List.map List.length groups)

(* ---- compute kernels vs golden ----------------------------------------- *)

let test_conv_kernel_behaviour () =
  let b = bench (Conv.spec ~w:3 ~h:3 ()) in
  let coeff = Image.Gen.constant (Size.v 3 3) (1. /. 9.) in
  b.feed "coeff" (Item.data coeff);
  let win = Image.Gen.ramp (Size.v 3 3) in
  b.feed "in" (Item.data win);
  ignore (b.run_to_idle ());
  match data_chunks (b.out "out") with
  | [ out ] ->
    let golden = Image_ops.convolve win ~kernel:coeff in
    Alcotest.(check (float 1e-9)) "matches golden"
      (Image.get golden ~x:0 ~y:0) (Image.get out ~x:0 ~y:0)
  | _ -> Alcotest.fail "expected one output"

let test_conv_coeff_reload () =
  let b = bench (Conv.spec ~w:1 ~h:1 ()) in
  b.feed "coeff" (Item.data (Image.Gen.constant Size.one 2.));
  b.feed "in" (px 5.);
  ignore (b.run_to_idle ());
  b.feed "coeff" (Item.data (Image.Gen.constant Size.one 3.));
  b.feed "in" (px 5.);
  ignore (b.run_to_idle ());
  let vals =
    List.map (fun i -> Image.get i ~x:0 ~y:0) (data_chunks (b.out "out"))
  in
  Alcotest.(check (list (float 1e-9))) "reloaded between fires" [ 10.; 15. ]
    vals

let test_median_kernel_behaviour () =
  let b = bench (Median.spec ~w:3 ~h:3 ()) in
  let win =
    Image.of_scanline_list (Size.v 3 3) [ 9.; 1.; 8.; 2.; 5.; 7.; 3.; 6.; 4. ]
  in
  b.feed "in" (Item.data win);
  ignore (b.run_to_idle ());
  match data_chunks (b.out "out") with
  | [ out ] -> Alcotest.(check (float 0.)) "median" 5. (Image.get out ~x:0 ~y:0)
  | _ -> Alcotest.fail "expected one output"

let test_bayer_position_dependence () =
  let frame = Size.v 6 6 in
  let mosaic = Image.Gen.ramp frame in
  let golden_r, golden_g, golden_b = Image_ops.bayer_demosaic mosaic in
  let b = bench (Bayer.spec ~frame ()) in
  (* Feed all the valid 3x3 windows in scan order. *)
  for oy = 0 to 3 do
    for ox = 0 to 3 do
      b.feed "in" (Item.data (Image.sub mosaic ~x:ox ~y:oy (Size.v 3 3)))
    done
  done;
  ignore (b.run_to_idle ());
  let plane port =
    Image.of_scanline_list (Size.v 4 4)
      (List.map (fun i -> Image.get i ~x:0 ~y:0) (data_chunks (b.out port)))
  in
  Alcotest.check image "red" golden_r (plane "r");
  Alcotest.check image "green" golden_g (plane "g");
  Alcotest.check image "blue" golden_b (plane "b")

let test_feedback_init_kernel () =
  let spec =
    Feedback.init ~window:Window.pixel
      ~initial:[ Image.Gen.constant Size.one 7. ]
      ()
  in
  let b = bench spec in
  (* Emits the initial value before consuming anything. *)
  ignore (b.run_to_idle ());
  (match data_chunks (b.out "out") with
  | [ i ] -> Alcotest.(check (float 0.)) "initial" 7. (Image.get i ~x:0 ~y:0)
  | _ -> Alcotest.fail "expected initial chunk");
  b.feed "in" (px 1.);
  b.feed "in" (Item.ctl (Token.eof 0));
  ignore (b.run_to_idle ());
  let items = b.out "out" in
  Alcotest.(check int) "forwards data, drops tokens" 1 (List.length items)

let suite =
  [
    Alcotest.test_case "buffer: config validation" `Quick
      test_buffer_config_validation;
    Alcotest.test_case "buffer: storage rule" `Quick test_buffer_storage_rule;
    Alcotest.test_case "buffer: window stream" `Quick
      test_buffer_emits_all_windows_in_order;
    Alcotest.test_case "buffer: downsampling" `Quick test_buffer_downsampling;
    Alcotest.test_case "buffer: frame reset" `Quick
      test_buffer_multi_frame_reset;
    Alcotest.test_case "buffer: wrong block rejected" `Quick
      test_buffer_rejects_wrong_block;
    buffer_window_property;
    Alcotest.test_case "split: round robin" `Quick test_split_round_robin;
    Alcotest.test_case "split: token broadcast" `Quick
      test_split_broadcasts_tokens;
    Alcotest.test_case "join: round robin" `Quick test_join_round_robin;
    Alcotest.test_case "join: token merge" `Quick test_join_merges_tokens;
    Alcotest.test_case "join: EOF resets cursor" `Quick
      test_join_eof_resets_cursor;
    split_join_roundtrip;
    Alcotest.test_case "split: pattern runs" `Quick test_pattern_split_runs;
    Alcotest.test_case "column split: overlap" `Quick test_column_split_overlap;
    Alcotest.test_case "column split: validation" `Quick
      test_column_split_validation;
    Alcotest.test_case "stripes: paper-style ranges" `Quick test_stripe_ranges;
    stripe_ranges_cover;
    Alcotest.test_case "inset: trims grid" `Quick test_inset_kernel;
    Alcotest.test_case "inset: validation" `Quick test_inset_validation;
    Alcotest.test_case "pad: zero margins" `Quick test_pad_kernel;
    pad_then_trim_identity;
    Alcotest.test_case "source: emission order" `Quick
      test_source_emission_order;
    Alcotest.test_case "source: frame mismatch" `Quick
      test_source_frame_mismatch;
    Alcotest.test_case "const source: once" `Quick test_const_source_emits_once;
    Alcotest.test_case "sink: collector grouping" `Quick
      test_sink_collector_grouping;
    Alcotest.test_case "conv: behaviour vs golden" `Quick
      test_conv_kernel_behaviour;
    Alcotest.test_case "conv: coefficient reload" `Quick test_conv_coeff_reload;
    Alcotest.test_case "median: behaviour" `Quick test_median_kernel_behaviour;
    Alcotest.test_case "bayer: position dependent" `Quick
      test_bayer_position_dependence;
    Alcotest.test_case "feedback: init kernel" `Quick test_feedback_init_kernel;
  ]

let test_buffer_emit_eol () =
  let frame = Size.v 5 4 in
  let cfg =
    Buffer.config ~emit_eol:true ~out_window:(Window.windowed 3 3) ~frame ()
  in
  let b = bench (Buffer.spec cfg) in
  feed_frame b "in" (Image.Gen.ramp frame) ~frame_idx:0;
  ignore (b.run_to_idle ());
  let items = b.out "out" in
  let kinds = List.map (fun t -> t.Token.kind) (tokens_of items) in
  (* 2 window rows: EOL, EOL then EOF. *)
  Alcotest.(check int) "token count" 3 (List.length kinds);
  Alcotest.(check bool) "last is EOF" true
    (List.nth kinds 2 = Token.End_of_frame);
  Alcotest.(check bool) "EOLs first" true
    (List.nth kinds 0 = Token.End_of_line
    && List.nth kinds 1 = Token.End_of_line);
  (* The EOL sits after each complete window row. *)
  let rec row_lengths acc current = function
    | [] -> List.rev acc
    | Item.Data _ :: rest -> row_lengths acc (current + 1) rest
    | Item.Ctl { Token.kind = Token.End_of_line; _ } :: rest ->
      row_lengths (current :: acc) 0 rest
    | Item.Ctl _ :: rest -> row_lengths acc current rest
  in
  Alcotest.(check (list int)) "rows of 3 windows" [ 3; 3 ]
    (row_lengths [] 0 items)

let suite =
  suite
  @ [ Alcotest.test_case "buffer: emit_eol" `Quick test_buffer_emit_eol ]

let histogram_cross_validation =
  (* Two independent implementations agree on uniform bins: the kernel's
     linear findBin (via [Histogram.reference]) and the arithmetic
     whole-frame [Image_ops.histogram]. *)
  qtest ~count:120 "histogram implementations agree"
    QCheck2.Gen.(
      triple (int_range 1 12)
        (pair (int_range 2 10) (int_range 2 10))
        int)
    (fun (bins, (w, h), seed) ->
      let img =
        Image.Gen.noise (Prng.create seed) (Size.v w h) 20.
      in
      let lo = 0. and hi = 20. in
      let reference = Histogram.reference img ~bins ~lo ~hi in
      let ops = Image_ops.histogram img ~bins ~lo ~hi in
      List.for_all
        (fun i -> Image.get reference ~x:i ~y:0 = ops.(i))
        (List.init bins Fun.id))

let suite = suite @ [ histogram_cross_validation ]
