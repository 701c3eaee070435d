(** A work-stealing pool of OCaml 5 domains for *independent* tasks.

    The simulation engine itself is single-threaded by design (see
    docs/PERFORMANCE.md); what parallelizes is the layer above it: sweeps
    of independent compile+simulate runs — per application, per mapping,
    per rate probe. This pool shards such task lists across domains and
    merges the results back in {e submission order}, so a sweep's output
    is bit-exact regardless of how many domains ran it or which domain
    ran which task. The normative contract — what tasks may and may not
    do, and what determinism is promised — is docs/PARALLELISM.md.

    Scheduling is work-stealing: task [i] of a batch is dealt to worker
    [i mod domains]; a worker drains its own queue front-to-back and,
    when empty, steals from the {e back} of a sibling's queue (recorded
    in [steals]). All queue manipulation shares one mutex — tasks here
    are whole compile+simulate runs (milliseconds to seconds), so lock
    traffic is noise; the win is the dealing/stealing {e policy}, not a
    lock-free deque.

    Each worker owns one ['r] {b resource}, created by the [resource]
    factory when the pool is created and handed to every task that
    worker runs. The sweep layer instantiates ['r] with a chunk pool
    ({!Bp_image.Pool.t}, which is not domain-safe) so each domain has
    its own — the per-domain pool-ownership rule of docs/PARALLELISM.md.

    A pool with [domains = 1] spawns no domain at all: [map] runs every
    task inline on the caller, in order, through the same accounting.
    This is the [-j 1] path, and it makes "parallel output equals serial
    output" a real end-to-end test rather than a tautology. *)

type 'r t
(** A pool of workers, each owning one ['r]. *)

type stats = {
  tasks : int;  (** Tasks this domain completed (cumulative). *)
  wall_s : float;  (** Wall seconds this domain spent inside tasks. *)
  steals : int;  (** Tasks this domain took from a sibling's queue. *)
}

val create : domains:int -> resource:(int -> 'r) -> unit -> 'r t
(** [create ~domains ~resource ()] starts [domains] worker domains
    ([domains >= 2]; the caller only coordinates), each with
    [resource i] ([i] in [0 .. domains-1]) built eagerly before any
    task runs, so ownership is pinned from the first task on.
    [domains = 1] is the inline path: no domain is spawned and [map]
    runs tasks on the caller. Raises [Invalid_argument] if
    [domains < 1]. *)

val domains : _ t -> int
(** The worker count the pool was created with. *)

val map : 'r t -> (domain:int -> 'r -> 'a -> 'b) -> 'a list -> 'b list
(** [map t f tasks] runs [f ~domain resource task] for every task, on
    whichever worker gets to it, and returns the results {b in
    submission order} — the deterministic-merge rule. Tasks must be
    independent: they may share no mutable state except through their
    per-domain resource, and must not assume anything about execution
    order (docs/PARALLELISM.md lists the full requirements).

    If tasks raise, every remaining task still runs (the batch drains),
    then the exception of the {e lowest-indexed} failed task is
    re-raised on the caller with its original backtrace — deterministic
    regardless of scheduling. The pool stays usable afterwards.
    Concurrent [map] calls from different threads serialize, batch by
    batch. *)

val stats : _ t -> stats list
(** Per-domain counters, cumulative since [create], in domain order. *)

val resources : 'r t -> 'r list
(** Each worker's resource, in domain order. Inspect between batches
    only — touching a resource while a batch runs races with its owner
    (the one sanctioned use is read-only stats such as
    {!Bp_image.Pool.stats}). *)

val shutdown : _ t -> unit
(** Wait for any in-flight batch, stop the workers, and join them.
    Idempotent; [map] after [shutdown] raises [Invalid_argument]. *)

val with_pool : domains:int -> resource:(int -> 'r) -> ('r t -> 'a) -> 'a
(** [create], apply, and [shutdown] (also on exception). *)
