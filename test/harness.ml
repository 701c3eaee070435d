(* Shared test apparatus: a bench for exercising one kernel behaviour in
   isolation, and helpers for whole-application assertions. *)

open Block_parallel

(* ---- single-kernel bench ---------------------------------------------- *)

type bench = {
  io : Behaviour.io;
  behaviour : Behaviour.t;
  feed : string -> Item.t -> unit;  (* append to an input queue *)
  out : string -> Item.t list;  (* drain an output queue *)
  out_peek : string -> Item.t list;  (* inspect without draining *)
  step : unit -> Behaviour.fired option;
  run_to_idle : unit -> int;  (* steps until no progress; returns count *)
}

let bench ?(capacity = 1024) (spec : Kernel.t) =
  let in_queues = Hashtbl.create 8 and out_queues = Hashtbl.create 8 in
  List.iter
    (fun (p : Port.t) -> Hashtbl.replace in_queues p.Port.name (Queue.create ()))
    spec.Kernel.inputs;
  List.iter
    (fun (p : Port.t) -> Hashtbl.replace out_queues p.Port.name (Queue.create ()))
    spec.Kernel.outputs;
  let in_q name =
    match Hashtbl.find_opt in_queues name with
    | Some q -> q
    | None -> Alcotest.failf "bench: no input %s" name
  in
  let out_q name =
    match Hashtbl.find_opt out_queues name with
    | Some q -> q
    | None -> Alcotest.failf "bench: no output %s" name
  in
  let io =
    {
      Behaviour.peek =
        (fun name ->
          let q = in_q name in
          if Queue.is_empty q then None else Some (Queue.peek q));
      pop = (fun name -> Queue.pop (in_q name));
      push = (fun name item -> Queue.push item (out_q name));
      space = (fun name -> capacity - Queue.length (out_q name));
      (* Allocation-naive io: the bench harness exercises behaviours
         outside any engine, so releases are dropped. *)
      acquire = Image.create;
      release = ignore;
      has_input = (fun name -> not (Queue.is_empty (in_q name)));
    }
  in
  let behaviour = spec.Kernel.make_behaviour () in
  let drain q = List.of_seq (Queue.to_seq q) in
  {
    io;
    behaviour;
    feed = (fun name item -> Queue.push item (in_q name));
    out =
      (fun name ->
        let q = out_q name in
        let items = drain q in
        Queue.clear q;
        items);
    out_peek = (fun name -> drain (out_q name));
    step = (fun () -> behaviour.Behaviour.try_step io);
    run_to_idle =
      (fun () ->
        let rec go n =
          match behaviour.Behaviour.try_step io with
          | Some _ -> go (n + 1)
          | None -> n
        in
        go 0);
  }

let px v = Item.data (Image.Gen.constant Size.one v)

let feed_frame ?(tokens = true) bench input (img : Image.t) ~frame_idx =
  let w = Image.width img and h = Image.height img in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      bench.feed input (px (Image.get img ~x ~y))
    done;
    if tokens then bench.feed input (Item.ctl (Token.eol y))
  done;
  if tokens then bench.feed input (Item.ctl (Token.eof frame_idx))

let data_chunks items =
  List.filter_map
    (function Item.Data img -> Some img | Item.Ctl _ -> None)
    items

let tokens_of items =
  List.filter_map
    (function Item.Ctl t -> Some t | Item.Data _ -> None)
    items

(* ---- whole-application helpers ---------------------------------------- *)

let check_app ?(policies = [ Plan.One_to_one; Plan.Greedy ]) ?machine
    (inst : App.instance) =
  let machine = Option.value machine ~default:Machine.default in
  let compiled = Pipeline.compile ~machine inst.App.graph in
  List.iter
    (fun policy ->
      let result = Sim.run_plan ~policy compiled () in
      let diffs, ok = App.verify inst result in
      List.iter
        (fun (label, d) ->
          if d > 1e-9 then
            Alcotest.failf "%s [%s] %s: |diff| = %g" inst.App.name
              (Plan.policy_name policy) label d)
        diffs;
      if not ok then
        Alcotest.failf "%s [%s]: verification failed (chunks or leftovers)"
          inst.App.name (Plan.policy_name policy);
      let verdict =
        Sim.real_time_verdict result ~expected_frames:inst.App.n_frames
          ~period_s:(App.period_s inst)
          ~allowed_leftover:inst.App.allowed_leftover ()
      in
      if not verdict.Sim.met then
        Alcotest.failf "%s [%s]: real-time constraint missed" inst.App.name
          (Plan.policy_name policy))
    policies;
  compiled

(* ---- alcotest testables ----------------------------------------------- *)

let size : Size.t Alcotest.testable =
  Alcotest.testable (fun ppf s -> Size.pp ppf s) Size.equal

let inset : Inset.t Alcotest.testable =
  Alcotest.testable (fun ppf i -> Inset.pp ppf i) Inset.equal

let image : Image.t Alcotest.testable =
  Alcotest.testable (fun ppf i -> Image.pp ppf i) (fun a b -> Image.equal a b)

let err_kind : Err.t Alcotest.testable =
  Alcotest.testable
    (fun ppf e -> Err.pp ppf e)
    (fun a b ->
      match (a, b) with
      | Err.Invalid_parameterization _, Err.Invalid_parameterization _
      | Err.Graph_malformed _, Err.Graph_malformed _
      | Err.Rate_mismatch _, Err.Rate_mismatch _
      | Err.Alignment_error _, Err.Alignment_error _
      | Err.Resource_exhausted _, Err.Resource_exhausted _
      | Err.Not_schedulable _, Err.Not_schedulable _
      | Err.Unsupported _, Err.Unsupported _ ->
        true
      | _ -> false)

let expect_error kind f =
  match Err.guard f with
  | Ok _ -> Alcotest.failf "expected %s error" (Err.to_string kind)
  | Error e -> Alcotest.check err_kind "error class" kind e

(* Substring search, for asserting on rendered output. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)
