(* Tests for the sharded sweep layer (docs/PARALLELISM.md): merged
   results are bit-exact whatever the domain count, worker pools stay
   leak-free under balanced borrowing, failures propagate with the
   lowest submission index winning, and parallel rate search records
   exactly the serial probe sequence. *)

open Block_parallel

(* The full determinism contract of a run: every simulated field,
   compared with exact float equality. [result.pool] is deliberately
   excluded — against a warm per-domain pool the hit/miss split depends
   on which worker ran the task (telemetry, not outcome). *)
let result_signature (r : Sim.result) =
  let assoc l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  ( Array.to_list
      (Array.map
         (fun (p : Sim.proc_stats) ->
           (p.Sim.run_s, p.Sim.read_s, p.Sim.write_s, p.Sim.fires))
         r.Sim.procs),
    (r.Sim.input_stalls, r.Sim.late_emissions, r.Sim.max_input_lateness_s),
    assoc r.Sim.sink_eofs,
    assoc r.Sim.sink_first_data,
    List.sort compare
      (List.map
         (fun (id, (ns : Sim.node_stats)) ->
           (id, ns.Sim.node_fires, ns.Sim.node_busy_s))
         r.Sim.node_stats),
    List.sort compare r.Sim.channel_depths,
    (r.Sim.leftover_items, r.Sim.events_processed, r.Sim.timed_out) )

let suite_jobs () =
  List.concat_map
    (fun (e : Apps.Suite.entry) ->
      List.map
        (fun policy ->
          {
            Sweep.label = e.Apps.Suite.label;
            machine = e.Apps.Suite.machine;
            policy;
            build = (fun () -> (e.Apps.Suite.build ()).App.graph);
          })
        [ Plan.One_to_one; Plan.Greedy ])
    Apps.Suite.entries

let outcome_key (o : Sweep.outcome) =
  ( o.Sweep.o_label,
    (match o.Sweep.o_policy with
    | Plan.One_to_one -> "1:1"
    | Plan.Greedy -> "greedy"),
    result_signature o.Sweep.o_result )

(* The merged sweep over all eleven suite apps under both mappings is
   bit-identical at -j 1, 2, 4 and 8 — same order, same labels,
   exact-equal floats and event counts. *)
let test_sweep_deterministic () =
  let run domains =
    Sweep.with_pool ~domains @@ fun pool ->
    List.map outcome_key (Sweep.simulate_jobs pool (suite_jobs ()))
  in
  let serial = run 1 in
  Alcotest.(check int)
    "22 outcomes (11 apps x 2 mappings)" 22 (List.length serial);
  List.iter
    (fun domains ->
      List.iter2
        (fun (l1, p1, s1) (ln, pn, sn) ->
          Alcotest.(check string) "label order preserved" l1 ln;
          Alcotest.(check string) (l1 ^ " policy order preserved") p1 pn;
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s bit-exact at -j %d" l1 p1 domains)
            true (s1 = sn))
        serial (run domains))
    [ 2; 4; 8 ]

(* Every task is accounted to exactly one worker and the merge preserves
   submission order even when tasks are dealt across domains. *)
let test_map_order_and_accounting () =
  Sweep.with_pool ~domains:3 @@ fun pool ->
  let input = List.init 50 Fun.id in
  let doubled = Sweep.map pool (fun ctx x -> (x * 2, ctx.Sweep.domain)) input in
  Alcotest.(check (list int))
    "submission order" (List.map (fun x -> x * 2) input)
    (List.map fst doubled);
  List.iter
    (fun (_, d) ->
      Alcotest.(check bool) "domain index in range" true (d >= 0 && d < 3))
    doubled;
  let total_tasks =
    List.fold_left
      (fun acc (d : Sweep.domain_report) -> acc + d.Sweep.d_tasks)
      0 (Sweep.report pool)
  in
  Alcotest.(check int) "every task accounted once" 50 total_tasks

(* Balanced borrow tasks: each task acquires scratch chunks from its
   worker's own pool and releases them all, so the per-domain leak check
   passes — and the pools really were used (some acquires happened). *)
let test_per_domain_no_live_leaks () =
  Sweep.with_pool ~domains:4 @@ fun pool ->
  let _ =
    Sweep.map pool
      (fun ctx i ->
        let s = Size.v (4 + (i mod 3)) 3 in
        let a = Pool.acquire ctx.Sweep.chunk_pool s in
        let b = Pool.acquire ctx.Sweep.chunk_pool s in
        Pool.release ctx.Sweep.chunk_pool a;
        Pool.release ctx.Sweep.chunk_pool b;
        i)
      (List.init 40 Fun.id)
  in
  Sweep.check_no_live_leaks pool;
  let acquires =
    List.fold_left
      (fun acc (d : Sweep.domain_report) ->
        acc + d.Sweep.d_pool.Pool.hits + d.Sweep.d_pool.Pool.misses)
      0 (Sweep.report pool)
  in
  Alcotest.(check int) "80 acquires across worker pools" 80 acquires

(* A crashing task fails the whole batch with the original exception; on
   concurrent failures the lowest submission index wins, and the pool
   survives to run the next batch. *)
let test_crash_propagates () =
  Sweep.with_pool ~domains:4 @@ fun pool ->
  (match
     Sweep.map pool
       (fun _ctx i -> if i >= 5 then failwith (Printf.sprintf "task %d" i))
       (List.init 20 Fun.id)
   with
  | _ -> Alcotest.fail "expected the batch to raise"
  | exception Failure msg ->
    Alcotest.(check string) "lowest failing index wins" "task 5" msg);
  let survivors = Sweep.map pool (fun _ctx x -> x + 1) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "pool usable after failure" [ 2; 3; 4 ] survivors

(* Speculative parallel rate search replays the serial bisection: the
   recorded probe list and the winner are identical, probe for probe. *)
let test_rate_search_probes_identical () =
  let build ~rate_hz =
    (Apps.Histogram_app.v ~frame:(Size.v 24 18) ~rate:(Rate.hz rate_hz)
       ~n_frames:2 ())
      .App.graph
  in
  let serial =
    Rate_search.search ~iterations:6 ~machine:Machine.default ~max_pes:8 build
  in
  let sharded =
    Sweep.with_pool ~domains:4 @@ fun pool ->
    Rate_search.search ~pool ~iterations:6 ~machine:Machine.default ~max_pes:8
      build
  in
  Alcotest.(check int)
    "a real bisection happened (lo, hi, 6 midpoints)" 8
    (List.length serial.Rate_search.probes);
  Alcotest.(check bool) "identical probes and winner" true (serial = sharded)

let suite =
  [
    Alcotest.test_case "suite sweep bit-exact -j1 vs -j4" `Slow
      test_sweep_deterministic;
    Alcotest.test_case "map order and task accounting" `Quick
      test_map_order_and_accounting;
    Alcotest.test_case "per-domain pools leak-free" `Quick
      test_per_domain_no_live_leaks;
    Alcotest.test_case "crash in task propagates" `Quick test_crash_propagates;
    Alcotest.test_case "rate search probes identical under -j" `Slow
      test_rate_search_probes_identical;
  ]
