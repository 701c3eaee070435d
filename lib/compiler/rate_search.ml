module Machine = Bp_machine.Machine
module Schedulability = Bp_transform.Schedulability

type probe = { rate_hz : float; pes : int; fits : bool }

type result = {
  best_rate_hz : float;
  best_pes : int;
  probes : probe list;
}

let try_rate ?align_policy ~machine ~max_pes ~greedy build rate_hz =
  match
    Bp_util.Err.guard (fun () ->
        Pipeline.compile ?align_policy ~machine (build ~rate_hz))
  with
  | Ok plan ->
    let pes =
      Plan.processors_needed plan
        ~policy:(if greedy then Plan.Greedy else Plan.One_to_one)
    in
    let schedulable = plan.Plan.schedulability.Schedulability.schedulable in
    { rate_hz; pes; fits = schedulable && pes <= max_pes }
  | Error _ -> { rate_hz; pes = max_int; fits = false }

(* The speculative frontier: every rate the bisection might probe within
   the next few steps, starting from interval (lo, hi) — the decision
   tree of midpoints, breadth-first, fit-branch first (a feasible search
   walks upward more often than not), truncated at [limit] nodes. Probing
   the frontier in one parallel batch lets the strictly sequential
   bisection consume several pre-computed levels per round while probing
   EXACTLY the rates the serial search would — speculation changes what
   is computed, never what is recorded (docs/PARALLELISM.md). *)
let frontier ~lo ~hi ~limit =
  let q = Queue.create () in
  Queue.add (lo, hi) q;
  let rec collect acc n =
    if n = 0 || Queue.is_empty q then List.rev acc
    else begin
      let a, b = Queue.pop q in
      let mid = (a +. b) /. 2. in
      Queue.add (mid, b) q;
      (* fit branch: lo <- mid *)
      Queue.add (a, mid) q;
      collect (mid :: acc) (n - 1)
    end
  in
  collect [] limit

let search ?(lo_hz = 1.) ?(hi_hz = 1000.) ?(iterations = 12) ?(greedy = true)
    ?align_policy ?pool ~machine ~max_pes build =
  if lo_hz <= 0. || hi_hz <= lo_hz then
    Bp_util.Err.invalidf "rate search needs 0 < lo < hi";
  let slots = match pool with None -> 1 | Some p -> Sweep.domains p in
  let try_rate = try_rate ?align_policy ~machine ~max_pes ~greedy build in
  (* Memoized pure probes, keyed by exact rate: midpoints are computed by
     the same float arithmetic on both the speculative and the replay
     side, so the keys match bit-for-bit. *)
  let memo : (float, probe) Hashtbl.t = Hashtbl.create 32 in
  let eval_batch rates =
    let fresh =
      List.filter (fun r -> not (Hashtbl.mem memo r))
        (List.sort_uniq compare rates)
    in
    let evaluated =
      match pool with
      | Some p when List.compare_length_with fresh 1 > 0 ->
        Sweep.map p (fun _ctx r -> try_rate r) fresh
      | _ -> List.map try_rate fresh
    in
    List.iter2 (fun r pr -> Hashtbl.replace memo r pr) fresh evaluated
  in
  let probes = ref [] in
  (* The canonical probe: exactly the serial bisection's next rate.
     Only canonical probes are recorded; [eval_batch] here is the
     slots = 1 degenerate case (one rate, computed inline). *)
  let probe rate =
    eval_batch [ rate ];
    let p = Hashtbl.find memo rate in
    probes := p :: !probes;
    p
  in
  if slots >= 2 then eval_batch [ lo_hz; hi_hz ];
  let first = probe lo_hz in
  if not first.fits then
    { best_rate_hz = 0.; best_pes = 0; probes = List.rev !probes }
  else begin
    let best = ref first in
    let lo = ref lo_hz and hi = ref hi_hz in
    (* If the top of the window fits, take it outright. *)
    let top = probe hi_hz in
    if top.fits then best := top
    else
      for _ = 1 to iterations do
        let mid = (!lo +. !hi) /. 2. in
        if slots >= 2 && not (Hashtbl.mem memo mid) then
          eval_batch (frontier ~lo:!lo ~hi:!hi ~limit:slots);
        let p = probe mid in
        if p.fits then begin
          best := p;
          lo := mid
        end
        else hi := mid
      done;
    {
      best_rate_hz = !best.rate_hz;
      best_pes = !best.pes;
      probes = List.rev !probes;
    }
  end
