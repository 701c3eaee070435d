(** Sharded simulation sweeps over a {!Bp_util.Domain_pool}.

    A sweep is a list of independent compile+simulate tasks — one per
    application, per mapping, per rate probe — executed across domains
    and merged back in submission order, so the sweep's outcome is
    bit-exact whatever [-j] was (the contract is docs/PARALLELISM.md).
    This module binds the generic pool to this codebase's resource rule:
    {b each worker domain owns one chunk pool} ({!Bp_image.Pool.t} is
    not domain-safe), created when the worker starts and lent to every
    simulation that worker runs ([Sim.run ~chunk_pool]), so free lists
    stay warm across a sweep without ever crossing a domain.

    Consumers: [bpc sweep -j N], [Rate_search.search ?pool], bpbench's
    [suite-sweep] workload, and [test/test_domains.ml]. *)

type ctx = {
  domain : int;  (** Index of the worker running the task. *)
  chunk_pool : Bp_image.Pool.t;
      (** The worker's own pool. Ownership is pinned to the worker for
          the task's whole duration: lend it to [Sim.run ~chunk_pool],
          or acquire/release scratch chunks directly — but never store
          it past the task or hand it to another domain. *)
}
(** What a task sees of the worker executing it. *)

type pool = Bp_image.Pool.t Bp_util.Domain_pool.t
(** A domain pool whose per-worker resource is a chunk pool. *)

val with_pool : ?domains:int -> (pool -> 'a) -> 'a
(** Run [f] on a fresh pool of [domains] workers (default 1: serial,
    inline — the [-j 1] path), then shut it down, also on an
    exception. *)

val domains : pool -> int

val map : pool -> (ctx -> 'a -> 'b) -> 'a list -> 'b list
(** {!Bp_util.Domain_pool.map} with the worker's chunk pool packaged
    into a {!ctx}. Results in submission order; lowest-index failure
    re-raised; tasks must satisfy the independence requirements of
    docs/PARALLELISM.md. *)

type domain_report = {
  d_domain : int;
  d_tasks : int;
  d_wall_s : float;
  d_steals : int;
  d_pool : Bp_image.Pool.stats;  (** The worker pool's cumulative counters. *)
}

val report : pool -> domain_report list
(** Per-domain execution telemetry, in domain order — the numbers
    behind the [sim.domain.<i>.*] metrics (docs/OBSERVABILITY.md). Call
    between batches. *)

val check_no_live_leaks : pool -> unit
(** {!Bp_image.Pool.check_no_live_leaks} on every worker pool. Only
    meaningful after balanced borrow tasks (acquire-and-release
    scratch); a simulation sweep legitimately skews [live] — sinks
    retain chunks and sources feed in chunks the pool never issued
    (docs/PARALLELISM.md §Pool accounting). *)

(** {1 The canonical sweep task} *)

type job = {
  label : string;
  machine : Bp_machine.Machine.t;
  policy : Plan.policy;
  build : unit -> Bp_graph.Graph.t;
      (** Builds a {e fresh} graph — executed on the worker, so
          everything it creates (nodes, behaviours, sink collectors) is
          task-local. Compilation mutates the graph; never share one
          across jobs. *)
}

type outcome = {
  o_label : string;
  o_policy : Plan.policy;
  o_plan : Plan.t;
  o_result : Bp_sim.Sim.result;
      (** Deterministic across [-j] except [result.pool], which reports
          this run's deltas against the worker's (warm) pool and so
          depends on scheduling — telemetry, not outcome
          (docs/PARALLELISM.md). *)
  o_domain : int;  (** Which worker ran it — telemetry. *)
  o_wall_s : float;  (** Compile+simulate wall seconds — telemetry. *)
}

val simulate_jobs :
  ?max_time_s:float -> ?elide:bool -> pool -> job list -> outcome list
(** Compile each job's graph and simulate it under its policy's mapping
    with the worker's chunk pool lent to the run. Outcomes in job
    order, bit-identical for every [-j] AND for [elide] on/off —
    [elide] (default [true]) is {!Bp_sim.Sim.run}'s wake-elision switch
    ([bpc sweep --no-elide] forces event-driven dispatch; only
    [static_elided_events] differs). *)
