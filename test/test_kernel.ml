(* Tests for the kernel model: ports, methods, spec validation, and the
   generic iteration-kernel runtime wrapper (token semantics included). *)

open Block_parallel
open Harness

(* ---- ports & methods --------------------------------------------------- *)

let test_port_buffer_words () =
  let p = Port.input "in" (Conv.input_window ~w:5 ~h:5) in
  Alcotest.(check int) "double-buffered iteration" 50 (Port.buffer_words p);
  Alcotest.(check bool) "not replicated by default" false p.Port.replicated;
  let r = Port.input ~replicated:true "coeff" (Window.block 5 5) in
  Alcotest.(check bool) "replicated" true r.Port.replicated

let test_port_find () =
  let ports = [ Port.input "a" Window.pixel; Port.input "b" Window.pixel ] in
  Alcotest.(check string) "found" "b" (Port.find ports "b").Port.name;
  expect_error (Err.Graph_malformed "") (fun () -> Port.find ports "zz")

let test_method_validation () =
  expect_error (Err.Invalid_parameterization "") (fun () ->
      Method_spec.on_data ~name:"m" ~inputs:[] ~outputs:[] ());
  expect_error (Err.Invalid_parameterization "") (fun () ->
      Method_spec.on_data ~name:"m" ~inputs:[ "a"; "a" ] ~outputs:[] ());
  expect_error (Err.Invalid_parameterization "") (fun () ->
      Method_spec.on_data ~cycles:(-1) ~name:"m" ~inputs:[ "a" ] ~outputs:[] ())

let test_method_trigger_inputs () =
  let m = Method_spec.on_data ~name:"m" ~inputs:[ "a"; "b" ] ~outputs:[] () in
  Alcotest.(check (list string)) "data inputs" [ "a"; "b" ]
    (Method_spec.trigger_inputs m);
  let t =
    Method_spec.on_token ~name:"t" ~input:"a" ~kind:Token.End_of_frame
      ~outputs:[] ()
  in
  Alcotest.(check (list string)) "token input" [ "a" ]
    (Method_spec.trigger_inputs t)

(* ---- spec validation --------------------------------------------------- *)

let dummy_behaviour () = Behaviour.v (fun _ -> None)

let test_spec_rejects_duplicate_ports () =
  expect_error (Err.Graph_malformed "") (fun () ->
      Kernel.v ~class_name:"bad"
        ~inputs:[ Port.input "in" Window.pixel; Port.input "in" Window.pixel ]
        ~outputs:[] ~methods:[] ~make_behaviour:dummy_behaviour ())

let test_spec_rejects_unknown_method_port () =
  expect_error (Err.Graph_malformed "") (fun () ->
      Kernel.v ~class_name:"bad"
        ~inputs:[ Port.input "in" Window.pixel ]
        ~outputs:[]
        ~methods:
          [ Method_spec.on_data ~name:"m" ~inputs:[ "nope" ] ~outputs:[] () ]
        ~make_behaviour:dummy_behaviour ())

let test_spec_rejects_undrained_input () =
  expect_error (Err.Graph_malformed "") (fun () ->
      Kernel.v ~class_name:"bad"
        ~inputs:[ Port.input "in" Window.pixel; Port.input "other" Window.pixel ]
        ~outputs:[]
        ~methods:
          [ Method_spec.on_data ~name:"m" ~inputs:[ "in" ] ~outputs:[] () ]
        ~make_behaviour:dummy_behaviour ())

let test_spec_rejects_shared_trigger () =
  expect_error (Err.Graph_malformed "") (fun () ->
      Kernel.v ~class_name:"bad"
        ~inputs:[ Port.input "in" Window.pixel ]
        ~outputs:[]
        ~methods:
          [
            Method_spec.on_data ~name:"m1" ~inputs:[ "in" ] ~outputs:[] ();
            Method_spec.on_data ~name:"m2" ~inputs:[ "in" ] ~outputs:[] ();
          ]
        ~make_behaviour:dummy_behaviour ())

let test_spec_memory_and_lookup () =
  let s = Conv.spec ~w:5 ~h:5 () in
  (* state 25 + in 2*25 + coeff 2*25 + out 2*1 *)
  Alcotest.(check int) "memory words" (25 + 50 + 50 + 2)
    (Kernel.memory_words s);
  Alcotest.(check int) "cycles lookup" (Costs.convolve ~w:5 ~h:5)
    (Kernel.find_method s "runConvolve").Method_spec.cycles;
  expect_error (Err.Graph_malformed "") (fun () ->
      Kernel.find_method s "nope")

let test_spec_replica () =
  let s = Conv.spec ~w:3 ~h:3 () in
  let r = Kernel.replica_spec s ~replica:1 ~ways:3 in
  Alcotest.(check string) "same spec for data-parallel" s.Kernel.class_name
    r.Kernel.class_name;
  let m = Histogram.merge ~bins:4 () in
  expect_error (Err.Unsupported "") (fun () ->
      Kernel.replica_spec m ~replica:0 ~ways:2)

(* ---- the iteration-kernel wrapper -------------------------------------- *)

let test_wrapper_data_fire () =
  let b = bench (Arith.gain 2.) in
  b.feed "in" (px 3.);
  (match b.step () with
  | Some f ->
    Alcotest.(check string) "method" "run" f.Behaviour.method_name;
    Alcotest.(check int) "cycles" Costs.gain f.Behaviour.cycles
  | None -> Alcotest.fail "expected a firing");
  match data_chunks (b.out "out") with
  | [ img ] -> Alcotest.(check (float 1e-9)) "doubled" 6. (Image.get img ~x:0 ~y:0)
  | _ -> Alcotest.fail "expected exactly one chunk"

let test_wrapper_blocks_when_empty () =
  let b = bench (Arith.gain 2.) in
  Alcotest.(check bool) "idle on empty input" true (b.step () = None)

let test_wrapper_token_forwarding () =
  let b = bench (Arith.gain 2.) in
  b.feed "in" (Item.ctl (Token.eof 0));
  (match b.step () with
  | Some f ->
    Alcotest.(check string) "forward pseudo-method"
      Behaviour.forward_method_name f.Behaviour.method_name
  | None -> Alcotest.fail "expected token forward");
  match tokens_of (b.out "out") with
  | [ t ] -> Alcotest.(check bool) "eof" true (t.Token.kind = Token.End_of_frame)
  | _ -> Alcotest.fail "expected one forwarded token"

let test_wrapper_matched_tokens () =
  let b = bench (Arith.subtract ()) in
  (* A token on only one input must not fire or forward. *)
  b.feed "in0" (Item.ctl (Token.eof 0));
  Alcotest.(check bool) "blocked on mixed fronts" true (b.step () = None);
  b.feed "in1" (Item.ctl (Token.eof 0));
  Alcotest.(check bool) "fires when matched" true (b.step () <> None);
  Alcotest.(check int) "forwarded once" 1 (List.length (b.out "out"))

let test_wrapper_mixed_fronts_block () =
  let b = bench (Arith.subtract ()) in
  b.feed "in0" (px 5.);
  b.feed "in1" (Item.ctl (Token.eof 0));
  Alcotest.(check bool) "data+token blocks" true (b.step () = None)

let test_wrapper_token_handler () =
  let b = bench (Histogram.spec ~bins:4 ()) in
  (* Configure bins, count two pixels, then EOF triggers finishCount. *)
  b.feed "bins" (Item.data (Histogram.bin_lower_bounds ~bins:4 ~lo:0. ~hi:4.));
  ignore (b.run_to_idle ());
  b.feed "in" (px 0.5);
  b.feed "in" (px 2.5);
  b.feed "in" (Item.ctl (Token.eof 0));
  ignore (b.run_to_idle ());
  match b.out "out" with
  | [ Item.Data hist; Item.Ctl tok ] ->
    Alcotest.(check (float 0.)) "bin 0" 1. (Image.get hist ~x:0 ~y:0);
    Alcotest.(check (float 0.)) "bin 2" 1. (Image.get hist ~x:2 ~y:0);
    Alcotest.(check bool) "token after data" true
      (tok.Token.kind = Token.End_of_frame)
  | items -> Alcotest.failf "unexpected output shape (%d items)" (List.length items)

let test_wrapper_handler_resets_state () =
  let b = bench (Histogram.spec ~bins:4 ()) in
  b.feed "bins" (Item.data (Histogram.bin_lower_bounds ~bins:4 ~lo:0. ~hi:4.));
  b.feed "in" (px 1.5);
  b.feed "in" (Item.ctl (Token.eof 0));
  b.feed "in" (px 1.5);
  b.feed "in" (Item.ctl (Token.eof 1));
  ignore (b.run_to_idle ());
  match data_chunks (b.out "out") with
  | [ h1; h2 ] ->
    Alcotest.(check (float 0.)) "frame 1 count" 1. (Image.get h1 ~x:1 ~y:0);
    Alcotest.(check (float 0.)) "frame 2 count reset" 1.
      (Image.get h2 ~x:1 ~y:0)
  | l -> Alcotest.failf "expected two histograms, got %d" (List.length l)

let test_wrapper_respects_space () =
  let b = bench ~capacity:0 (Arith.gain 1.) in
  b.feed "in" (px 1.);
  Alcotest.(check bool) "no space, no fire" true (b.step () = None)

let test_wrapper_eol_dropped_without_outputs () =
  (* The histogram's count method has no outputs, so EOL tokens vanish. *)
  let b = bench (Histogram.spec ~bins:4 ()) in
  b.feed "in" (Item.ctl (Token.eol 0));
  ignore (b.run_to_idle ());
  Alcotest.(check int) "nothing forwarded" 0 (List.length (b.out "out"))

let test_wrapper_undeclared_output_rejected () =
  (* Token bodies name their outputs, so they are the ones that can name
     an undeclared one. *)
  let methods =
    [
      Method_spec.on_data ~name:"m" ~inputs:[ "in" ] ~outputs:[ "out" ] ();
      Method_spec.on_token ~name:"t" ~input:"in" ~kind:Token.End_of_frame
        ~outputs:[ "out" ] ();
    ]
  in
  let run _m ~alloc:_ ~inputs ~outputs = outputs.(0) <- inputs.(0) in
  let rogue _m ~alloc:_ _tok = [ ("other", Image.Gen.constant Size.one 0.) ] in
  let spec =
    Kernel.v ~class_name:"rogue"
      ~inputs:[ Port.input "in" Window.pixel ]
      ~outputs:[ Port.output "out" Window.pixel ]
      ~methods
      ~make_behaviour:(fun () ->
        Behaviour.iteration_kernel ~methods ~run ~token_run:rogue ())
      ()
  in
  let b = bench spec in
  b.feed "in" (Item.ctl (Token.eof 0));
  expect_error (Err.Graph_malformed "") (fun () -> b.step ())

let test_item_accessors () =
  let d = px 3. in
  Alcotest.(check bool) "is_data" true (Item.is_data d);
  Alcotest.(check int) "data words" 1 (Item.words d);
  let t = Item.ctl (Token.eof 2) in
  Alcotest.(check int) "token words" 1 (Item.words t);
  (try
     ignore (Item.chunk_exn t);
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ());
  try
    ignore (Item.token_exn d);
    Alcotest.fail "expected failure"
  with Invalid_argument _ -> ()

let test_token_module () =
  Alcotest.(check bool) "kind equal" true
    (Token.kind_equal (Token.User "a") (Token.User "a"));
  Alcotest.(check bool) "kind differs" false
    (Token.kind_equal (Token.User "a") (Token.User "b"));
  Alcotest.(check bool) "eol vs eof" false
    (Token.kind_equal Token.End_of_line Token.End_of_frame);
  Alcotest.(check bool) "equal" true (Token.equal (Token.eof 3) (Token.eof 3));
  Alcotest.(check bool) "seq matters" false
    (Token.equal (Token.eof 3) (Token.eof 4));
  let b = Token.Bound.v (Token.User "retune") ~max_per_frame:2 in
  Alcotest.(check int) "budget kept" 2 b.Token.Bound.max_per_frame;
  expect_error (Err.Invalid_parameterization "") (fun () ->
      Token.Bound.v Token.End_of_line ~max_per_frame:(-1))

let suite =
  [
    Alcotest.test_case "port: buffer words" `Quick test_port_buffer_words;
    Alcotest.test_case "port: find" `Quick test_port_find;
    Alcotest.test_case "method: validation" `Quick test_method_validation;
    Alcotest.test_case "method: trigger inputs" `Quick
      test_method_trigger_inputs;
    Alcotest.test_case "spec: duplicate ports" `Quick
      test_spec_rejects_duplicate_ports;
    Alcotest.test_case "spec: unknown method port" `Quick
      test_spec_rejects_unknown_method_port;
    Alcotest.test_case "spec: undrained input" `Quick
      test_spec_rejects_undrained_input;
    Alcotest.test_case "spec: shared trigger" `Quick
      test_spec_rejects_shared_trigger;
    Alcotest.test_case "spec: memory/lookup" `Quick test_spec_memory_and_lookup;
    Alcotest.test_case "spec: replica policy" `Quick test_spec_replica;
    Alcotest.test_case "wrapper: data fire" `Quick test_wrapper_data_fire;
    Alcotest.test_case "wrapper: idle when empty" `Quick
      test_wrapper_blocks_when_empty;
    Alcotest.test_case "wrapper: token forwarding" `Quick
      test_wrapper_token_forwarding;
    Alcotest.test_case "wrapper: matched tokens" `Quick
      test_wrapper_matched_tokens;
    Alcotest.test_case "wrapper: mixed fronts block" `Quick
      test_wrapper_mixed_fronts_block;
    Alcotest.test_case "wrapper: token handler" `Quick
      test_wrapper_token_handler;
    Alcotest.test_case "wrapper: handler resets state" `Quick
      test_wrapper_handler_resets_state;
    Alcotest.test_case "wrapper: space respected" `Quick
      test_wrapper_respects_space;
    Alcotest.test_case "wrapper: EOL dropped without outputs" `Quick
      test_wrapper_eol_dropped_without_outputs;
    Alcotest.test_case "wrapper: undeclared output" `Quick
      test_wrapper_undeclared_output_rejected;
    Alcotest.test_case "item: accessors" `Quick test_item_accessors;
    Alcotest.test_case "token: module" `Quick test_token_module;
  ]
