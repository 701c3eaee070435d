(* Tests for the zero-allocation data plane: the chunk pool's reuse and
   accounting contract, bit-exactness of the in-place [_into] image ops
   against their allocating counterparts, and GC-level sanity of the
   pooled simulator (docs/PERFORMANCE.md §"The data plane"). *)

open Block_parallel
open Harness

(* ---- pool contract ----------------------------------------------------- *)

let test_reuse_round_trip () =
  let p = Pool.create () in
  let s = Size.v 4 3 in
  let a = Pool.acquire p s in
  Image.set a ~x:2 ~y:1 42.;
  Pool.release p a;
  let b = Pool.acquire p s in
  Alcotest.(check bool) "same physical buffer" true (a == b);
  Alcotest.(check (float 0.)) "recycled buffer zeroed" 0.
    (Image.get b ~x:2 ~y:1);
  (* A different extent must not be served from that free list. *)
  let c = Pool.acquire p (Size.v 3 4) in
  Alcotest.(check bool) "extent keyed" false (b == c);
  let st = Pool.stats p in
  Alcotest.(check int) "hits" 1 st.Pool.hits;
  Alcotest.(check int) "misses" 2 st.Pool.misses;
  Alcotest.(check int) "releases" 1 st.Pool.releases;
  Alcotest.(check int) "live" 2 st.Pool.live

let test_no_live_leaks_check () =
  let p = Pool.create () in
  let a = Pool.acquire p (Size.v 2 2) in
  (try
     Pool.check_no_live_leaks p;
     Alcotest.fail "expected a live-leak failure"
   with Invalid_argument _ -> ());
  Pool.release p a;
  Pool.check_no_live_leaks p

(* Chunks that travel through a channel ring and come back out can be
   released and recycled: the ring's slot clearing must not retain (or
   corrupt) a pooled buffer. *)
let test_ring_round_trip () =
  let p = Pool.create () in
  let s = Size.v 3 3 in
  let dummy = Image.create Size.one in
  let ring = Bp_sim.Ring.create ~capacity:4 ~dummy in
  for i = 0 to 7 do
    let img = Pool.acquire p s in
    Image.set img ~x:1 ~y:1 (float_of_int i);
    Bp_sim.Ring.push ring img;
    let out = Bp_sim.Ring.pop ring in
    Alcotest.(check bool) "ring preserves identity" true (img == out);
    Alcotest.(check (float 0.)) "payload intact" (float_of_int i)
      (Image.get out ~x:1 ~y:1);
    Pool.release p out
  done;
  Pool.check_no_live_leaks p;
  let st = Pool.stats p in
  Alcotest.(check int) "one physical buffer served all rounds" 1
    st.Pool.misses

(* ---- in-place ops: bit-exact vs the allocating forms ------------------- *)

let gen_image ?(min_dim = 1) ?(max_dim = 12) () =
  QCheck2.Gen.(
    map
      (fun ((w, h), seed) ->
        Image.Gen.noise (Prng.create seed) (Size.v w h) 100.)
      (pair (pair (int_range min_dim max_dim) (int_range min_dim max_dim)) int))

let exact = Image.equal ~eps:0.

let prop_convolve_into =
  qtest "convolve_into = convolve"
    QCheck2.Gen.(
      pair (gen_image ~min_dim:3 ()) (pair (int_range 1 3) (int_range 1 3)))
    (fun (img, (kw, kh)) ->
      let kernel = Image.Gen.ramp (Size.v kw kh) in
      let want = Image_ops.convolve img ~kernel in
      let dst = Image.create (Image.size want) in
      Image_ops.convolve_into img ~kernel ~dst;
      exact want dst)

let prop_median_into =
  qtest "median_into = median (with and without scratch)"
    QCheck2.Gen.(
      pair (gen_image ~min_dim:3 ()) (pair (int_range 1 3) (int_range 1 3)))
    (fun (img, (w, h)) ->
      let want = Image_ops.median img ~w ~h in
      let dst = Image.create (Image.size want) in
      Image_ops.median_into img ~w ~h ~dst;
      let dst2 = Image.create (Image.size want) in
      Image_ops.median_into ~scratch:(Array.make (w * h) 0.) img ~w ~h
        ~dst:dst2;
      exact want dst && exact want dst2)

let prop_subtract_into =
  qtest "subtract_into = subtract"
    QCheck2.Gen.(pair (gen_image ()) int)
    (fun (a, seed) ->
      let b = Image.Gen.noise (Prng.create seed) (Image.size a) 50. in
      let want = Image_ops.subtract a b in
      let dst = Image.create (Image.size a) in
      Image_ops.subtract_into a b ~dst;
      exact want dst)

let prop_downsample_into =
  qtest "downsample_into = downsample"
    QCheck2.Gen.(
      pair
        (gen_image ~min_dim:3 ())
        (pair (int_range 1 3) (int_range 1 3)))
    (fun (img, (fx, fy)) ->
      let want = Image_ops.downsample img ~fx ~fy in
      let dst = Image.create (Image_ops.downsample_extent img ~fx ~fy) in
      Image_ops.downsample_into img ~fx ~fy ~dst;
      exact want dst)

(* ---- GC sanity --------------------------------------------------------- *)

let minor_words_of f =
  let g0 = Metrics.gc_snapshot () in
  f ();
  let g1 = Metrics.gc_snapshot () in
  g1.Metrics.gc_minor_words -. g0.Metrics.gc_minor_words

(* The data plane itself is where the ≥2× contract is enforced: a warm
   acquire/release cycle must allocate far less than a fresh Image.create
   of the same extent. (At the whole-simulator level the engine's fixed
   per-event overhead dilutes this ratio — see docs/PERFORMANCE.md.) *)
let test_pool_beats_fresh_allocation () =
  let s = Size.v 32 32 in
  let iters = 2_000 in
  let p = Pool.create () in
  let warm = Pool.acquire p s in
  Pool.release p warm;
  let pooled =
    minor_words_of (fun () ->
        for _ = 1 to iters do
          let img = Pool.acquire p s in
          Pool.release p img
        done)
  in
  let sink = ref (Image.create Size.one) in
  let fresh =
    minor_words_of (fun () ->
        for _ = 1 to iters do
          sink := Image.create s
        done)
  in
  if not (fresh >= 2. *. pooled) then
    Alcotest.failf
      "pooled data plane not >=2x cheaper: pooled %.0f vs fresh %.0f minor \
       words"
      pooled fresh

(* The pooled engine must stay within a hard allocation budget per event
   on the flagship fixture: ~60 words/event as of this writing, with
   headroom for instruction-set noise. A regression that reintroduces
   per-event boxing or closures blows well past this. *)
let test_sim_allocation_budget () =
  let inst =
    Apps.Image_pipeline.v ~frame:(Size.v 48 36) ~rate:(Rate.hz 20.)
      ~n_frames:2 ()
  in
  let compiled = Pipeline.compile ~machine:Machine.default inst.App.graph in
  let mapping = Plan.mapping compiled ~policy:Plan.One_to_one in
  (* One warmup run to fault in code paths. *)
  ignore
    (Sim.run ~graph:compiled.Pipeline.graph ~mapping
       ~machine:Machine.default ());
  let result = ref None in
  let minor =
    minor_words_of (fun () ->
        result :=
          Some
            (Sim.run ~graph:compiled.Pipeline.graph ~mapping
               ~machine:Machine.default ()))
  in
  let r = match !result with Some r -> r | None -> assert false in
  let per_event = minor /. float_of_int r.Sim.events_processed in
  if per_event > 150. then
    Alcotest.failf "engine allocates %.1f minor words/event (budget 150)"
      per_event;
  (* The pool must actually be carrying the data plane. *)
  match r.Sim.pool with
  | None -> Alcotest.fail "pooled run reported no pool stats"
  | Some st ->
    let acquires = st.Pool.hits + st.Pool.misses in
    let rate = float_of_int st.Pool.hits /. float_of_int (max 1 acquires) in
    if rate < 0.95 then
      Alcotest.failf "pool hit rate %.3f below 0.95 (%d hits, %d misses)"
        rate st.Pool.hits st.Pool.misses;
    if st.Pool.releases = 0 then Alcotest.fail "no chunks were ever released"

(* An observed run — both [Instrument] observers and [Health] attached,
   as [bpc simulate --metrics --health] does — must stay within a per-event
   allocation budget too. The observers count into preallocated slots, so
   their share is the hooks' argument boxing and the growth of the sample
   and interval arrays; formatting and hashing a metric name per event
   costs several hundred words/event. Large growable arrays are allocated
   straight on the major heap, so this counts minor + major - promoted
   words (the registry's [gc.allocated_words]), not minor words alone. *)
let test_observed_allocation_budget () =
  let inst =
    Apps.Histogram_app.v ~frame:(Size.v 96 72) ~rate:(Rate.hz 40.)
      ~n_frames:3 ()
  in
  let plan = Pipeline.compile ~machine:Machine.default inst.App.graph in
  let observed_run () =
    let graph = plan.Pipeline.graph in
    let ins = Instrument.create ~graph () in
    let hlt = Health.create ~graph () in
    Sim.run_plan ~observer:(Instrument.observer ins)
      ~channel_observer:(Instrument.channel_observer ins)
      ~state_observer:(Health.state_observer hlt) ~policy:Plan.Greedy plan ()
  in
  (* One warmup run to fault in code paths. *)
  ignore (observed_run ());
  let m = Metrics.create () in
  let before = Metrics.gc_snapshot () in
  let r = observed_run () in
  Metrics.record_gc m ~before ~after:(Metrics.gc_snapshot ()) ();
  let words = Option.get (Metrics.gauge m "gc.allocated_words") in
  let per_event = words /. float_of_int r.Sim.events_processed in
  if per_event > 150. then
    Alcotest.failf "observed run allocates %.1f words/event (budget 150)"
      per_event

let suite =
  [
    Alcotest.test_case "pool reuse round-trip" `Quick test_reuse_round_trip;
    Alcotest.test_case "check_no_live_leaks" `Quick test_no_live_leaks_check;
    Alcotest.test_case "pooled chunks through a ring" `Quick
      test_ring_round_trip;
    prop_convolve_into;
    prop_median_into;
    prop_subtract_into;
    prop_downsample_into;
    Alcotest.test_case "pool >=2x cheaper than fresh alloc" `Quick
      test_pool_beats_fresh_allocation;
    Alcotest.test_case "simulator allocation budget" `Quick
      test_sim_allocation_budget;
    Alcotest.test_case "observed-run allocation budget" `Quick
      test_observed_allocation_budget;
  ]
