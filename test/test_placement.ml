(* Tests for the standalone simulated-annealing placer. *)

open Block_parallel

let compiled_and_mapping () =
  let inst =
    Apps.Image_pipeline.v ~frame:(Size.v 24 18) ~rate:(Rate.hz 30.)
      ~n_frames:1 ()
  in
  let compiled = Pipeline.compile ~machine:Machine.default inst.App.graph in
  (compiled.Pipeline.analysis, Plan.mapping compiled ~policy:Plan.One_to_one)

let test_mesh_side () =
  let an, mapping = compiled_and_mapping () in
  let p = Placement.random_placement ~seed:1 an mapping in
  let procs = Mapping.processors mapping in
  Alcotest.(check bool) "mesh fits processors" true
    (p.Placement.mesh_side * p.Placement.mesh_side >= procs);
  Alcotest.(check bool) "mesh not oversized" true
    ((p.Placement.mesh_side - 1) * (p.Placement.mesh_side - 1) < procs)

let test_tiles_distinct () =
  let an, mapping = compiled_and_mapping () in
  let p = Placement.place an mapping in
  let procs = Mapping.processors mapping in
  let tiles = List.init procs p.Placement.tile_of in
  Alcotest.(check int) "all tiles distinct" procs
    (List.length (List.sort_uniq compare tiles));
  List.iter
    (fun (x, y) ->
      Alcotest.(check bool) "within mesh" true
        (x >= 0 && y >= 0 && x < p.Placement.mesh_side
        && y < p.Placement.mesh_side))
    tiles

let test_annealing_beats_random () =
  let an, mapping = compiled_and_mapping () in
  let random = Placement.random_placement ~seed:11 an mapping in
  let annealed = Placement.place an mapping in
  Alcotest.(check bool)
    (Printf.sprintf "annealed %.0f <= random %.0f" annealed.Placement.cost
       random.Placement.cost)
    true
    (annealed.Placement.cost <= random.Placement.cost);
  Alcotest.(check bool) "cost consistent with cost function" true
    (Float.abs
       (annealed.Placement.cost
       -. Placement.communication_cost an mapping annealed.Placement.tile_of)
    < 1e-6)

let test_deterministic () =
  let an, mapping = compiled_and_mapping () in
  let a = Placement.place an mapping in
  let b = Placement.place an mapping in
  Alcotest.(check (float 1e-9)) "same seed, same cost" a.Placement.cost
    b.Placement.cost

let test_cost_positive_when_spread () =
  let an, mapping = compiled_and_mapping () in
  let p = Placement.random_placement ~seed:3 an mapping in
  Alcotest.(check bool) "random placements have cost" true
    (p.Placement.cost > 0.)

let suite =
  [
    Alcotest.test_case "placement: mesh sizing" `Quick test_mesh_side;
    Alcotest.test_case "placement: tiles distinct" `Quick test_tiles_distinct;
    Alcotest.test_case "placement: annealing beats random" `Quick
      test_annealing_beats_random;
    Alcotest.test_case "placement: deterministic" `Quick test_deterministic;
    Alcotest.test_case "placement: nonzero cost" `Quick
      test_cost_positive_when_spread;
  ]
