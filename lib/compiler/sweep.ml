(* Sharded sweeps: the domain pool specialized to per-worker chunk
   pools, plus the canonical compile+simulate task. Contract in
   docs/PARALLELISM.md. *)

module Domain_pool = Bp_util.Domain_pool
module Pool = Bp_image.Pool
module Sim = Bp_sim.Sim

type ctx = { domain : int; chunk_pool : Pool.t }
type pool = Pool.t Domain_pool.t

let with_pool ?(domains = 1) f =
  Domain_pool.with_pool ~domains ~resource:(fun _ -> Pool.create ()) f

let domains = Domain_pool.domains

let map p f tasks =
  Domain_pool.map p
    (fun ~domain chunk_pool task -> f { domain; chunk_pool } task)
    tasks

type domain_report = {
  d_domain : int;
  d_tasks : int;
  d_wall_s : float;
  d_steals : int;
  d_pool : Pool.stats;
}

let report p =
  List.mapi
    (fun i ((s : Domain_pool.stats), pl) ->
      {
        d_domain = i;
        d_tasks = s.Domain_pool.tasks;
        d_wall_s = s.Domain_pool.wall_s;
        d_steals = s.Domain_pool.steals;
        d_pool = Pool.stats pl;
      })
    (List.combine (Domain_pool.stats p) (Domain_pool.resources p))

let check_no_live_leaks p =
  List.iter Pool.check_no_live_leaks (Domain_pool.resources p)

(* ---- the canonical sweep task ------------------------------------------ *)

type job = {
  label : string;
  machine : Bp_machine.Machine.t;
  policy : Plan.policy;
  build : unit -> Bp_graph.Graph.t;
}

type outcome = {
  o_label : string;
  o_policy : Plan.policy;
  o_plan : Plan.t;
  o_result : Sim.result;
  o_domain : int;
  o_wall_s : float;
}

let simulate_jobs ?max_time_s ?elide p jobs =
  map p
    (fun ctx job ->
      let t0 = Bp_util.Clock.now_s () in
      let plan = Pipeline.compile ~machine:job.machine (job.build ()) in
      let result =
        Plan.run_plan ?max_time_s ~chunk_pool:ctx.chunk_pool ?elide
          ~policy:job.policy plan ()
      in
      {
        o_label = job.label;
        o_policy = job.policy;
        o_plan = plan;
        o_result = result;
        o_domain = ctx.domain;
        o_wall_s = Bp_util.Clock.elapsed_s ~since:t0;
      })
    jobs
