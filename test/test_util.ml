(* Unit and property tests for Bp_util: ids, errors, PRNG, stats, tables. *)

open Block_parallel
open Harness

let test_id_fresh () =
  let g = Id.make_gen () in
  Alcotest.(check int) "first" 0 (Id.fresh g);
  Alcotest.(check int) "second" 1 (Id.fresh g);
  Alcotest.(check int) "peek" 2 (Id.peek g);
  Alcotest.(check int) "peek is stable" 2 (Id.peek g)

let test_id_independent () =
  let a = Id.make_gen () and b = Id.make_gen () in
  ignore (Id.fresh a);
  ignore (Id.fresh a);
  Alcotest.(check int) "b untouched" 0 (Id.fresh b)

let test_id_reserve () =
  let g = Id.make_gen () in
  Id.reserve g 10;
  Alcotest.(check int) "jumps forward" 10 (Id.fresh g);
  Id.reserve g 5;
  Alcotest.(check int) "never moves back" 11 (Id.fresh g)

let test_err_to_string () =
  Alcotest.(check bool) "prefix"
    true
    (String.length (Err.to_string (Err.Rate_mismatch "x")) > 2);
  Alcotest.(check string) "rate prefix" "rate mismatch: boom"
    (Err.to_string (Err.Rate_mismatch "boom"))

let test_err_guard () =
  (match Err.guard (fun () -> 42) with
  | Ok v -> Alcotest.(check int) "ok passes" 42 v
  | Error _ -> Alcotest.fail "unexpected error");
  match Err.guard (fun () -> Err.fail (Err.Unsupported "nope")) with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e -> Alcotest.check err_kind "class" (Err.Unsupported "") e

let test_err_formatters () =
  expect_error (Err.Invalid_parameterization "") (fun () ->
      Err.invalidf "bad %d" 3);
  expect_error (Err.Graph_malformed "") (fun () -> Err.graphf "bad");
  expect_error (Err.Not_schedulable "") (fun () -> Err.schedulef "bad");
  expect_error (Err.Resource_exhausted "") (fun () -> Err.resourcef "bad");
  expect_error (Err.Alignment_error "") (fun () -> Err.alignf "bad")

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let xs = List.init 20 (fun _ -> Prng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1_000_000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_prng_zero_seed () =
  let g = Prng.create 0 in
  (* Must not be the degenerate all-zero stream. *)
  let any_nonzero =
    List.exists (fun _ -> Prng.int g 100 <> 0) (List.init 20 Fun.id)
  in
  Alcotest.(check bool) "non-degenerate" true any_nonzero

let test_prng_split () =
  let g = Prng.create 7 in
  let h = Prng.split g in
  let xs = List.init 10 (fun _ -> Prng.int g 1000) in
  let ys = List.init 10 (fun _ -> Prng.int h 1000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_prng_shuffle_permutes () =
  let g = Prng.create 3 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_stats_basics () =
  Alcotest.(check (float 1e-9)) "mean" 2. (Bp_util.Stats.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0. (Bp_util.Stats.mean []);
  Alcotest.(check (float 1e-9)) "min" 1. (Bp_util.Stats.minimum [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "max" 3. (Bp_util.Stats.maximum [ 3.; 1.; 2. ]);
  Alcotest.(check int) "clamp lo" 0 (Bp_util.Stats.clamp ~lo:0 ~hi:5 (-3));
  Alcotest.(check int) "clamp hi" 5 (Bp_util.Stats.clamp ~lo:0 ~hi:5 9);
  Alcotest.(check int) "ceil_div exact" 3 (Bp_util.Stats.ceil_div 9 3);
  Alcotest.(check int) "ceil_div round" 4 (Bp_util.Stats.ceil_div 10 3);
  Alcotest.(check string) "pct" "37.5%" (Bp_util.Stats.pct 0.375)

let test_stats_errors () =
  (try
     ignore (Bp_util.Stats.minimum []);
     Alcotest.fail "expected exception"
   with Invalid_argument _ -> ());
  try
    ignore (Bp_util.Stats.ceil_div 1 0);
    Alcotest.fail "expected exception"
  with Invalid_argument _ -> ()

let test_table_renders () =
  let t = Table.create ~title:"T" [ "a"; "bb" ] in
  Table.add_row t [ "1"; "x" ];
  Table.add_rule t;
  Table.add_row t [ "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0);
  Alcotest.(check bool) "contains cell" true (contains s "22");
  Alcotest.(check bool) "pads short rows" true (contains s "| 22 |")

let test_table_row_too_long () =
  let t = Table.create ~title:"" [ "a" ] in
  try
    Table.add_row t [ "1"; "2" ];
    Alcotest.fail "expected exception"
  with Invalid_argument _ -> ()

let prng_bounds =
  qtest "prng int stays in bounds"
    QCheck2.Gen.(pair (int_range 1 10_000) int)
    (fun (bound, seed) ->
      let g = Prng.create seed in
      let v = Prng.int g bound in
      v >= 0 && v < bound)

let prng_float_bounds =
  qtest "prng float stays in bounds" QCheck2.Gen.int (fun seed ->
      let g = Prng.create seed in
      let v = Prng.float g 3.5 in
      v >= 0. && v < 3.5)

let stats_mean_bounded =
  qtest "mean between min and max"
    QCheck2.Gen.(list_size (int_range 1 40) (float_bound_inclusive 1000.))
    (fun xs ->
      let m = Bp_util.Stats.mean xs in
      m >= Bp_util.Stats.minimum xs -. 1e-9
      && m <= Bp_util.Stats.maximum xs +. 1e-9)

let suite =
  [
    Alcotest.test_case "id: fresh increments" `Quick test_id_fresh;
    Alcotest.test_case "id: generators independent" `Quick test_id_independent;
    Alcotest.test_case "id: reserve" `Quick test_id_reserve;
    Alcotest.test_case "err: to_string" `Quick test_err_to_string;
    Alcotest.test_case "err: guard" `Quick test_err_guard;
    Alcotest.test_case "err: formatters" `Quick test_err_formatters;
    Alcotest.test_case "prng: deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng: seeds differ" `Quick test_prng_seeds_differ;
    Alcotest.test_case "prng: zero seed ok" `Quick test_prng_zero_seed;
    Alcotest.test_case "prng: split independent" `Quick test_prng_split;
    Alcotest.test_case "prng: shuffle permutes" `Quick test_prng_shuffle_permutes;
    Alcotest.test_case "stats: basics" `Quick test_stats_basics;
    Alcotest.test_case "stats: errors" `Quick test_stats_errors;
    Alcotest.test_case "table: renders" `Quick test_table_renders;
    Alcotest.test_case "table: row too long" `Quick test_table_row_too_long;
    prng_bounds;
    prng_float_bounds;
    stats_mean_bounded;
  ]
