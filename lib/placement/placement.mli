(** Simulated-annealing placement onto a 2-D mesh.

    The paper implements (but does not integrate) a simulated-annealing
    placer: throughput is insensitive to placement, which only affects
    first-output latency and communication energy (Section IV-D). This
    module reproduces that component: given a compiled graph and a
    kernel-to-processor mapping, it assigns processors to tiles of a square
    mesh network-on-chip, minimizing the total
    words-per-frame × Manhattan-distance communication cost.

    The placer is deterministic for a given seed. *)

type placement = {
  mesh_side : int;  (** The mesh is [mesh_side × mesh_side] tiles. *)
  tile_of : int -> int * int;
      (** Tile coordinates of each processor (off-chip endpoints are pinned
          to tile (0,0)'s edge and excluded from optimization). *)
  cost : float;  (** Total weighted Manhattan communication cost. *)
}

val communication_cost :
  Bp_analysis.Dataflow.t -> Bp_sim.Mapping.t -> (int -> int * int) -> float
(** [communication_cost an mapping tile_of] is the words-per-frame-weighted
    Manhattan distance summed over all channels whose endpoints live on
    distinct processors. Channels to or from off-chip nodes cost the
    distance to tile (0,0). *)

val place : Bp_analysis.Dataflow.t -> Bp_sim.Mapping.t -> placement
(** Anneal a placement for the mapping's processors: seed 1, 60
    geometric cooling steps of 200 moves each from temperature 100, by a
    factor of 0.92. The mesh side is the smallest square that fits them.
    Postcondition, checked before returning: the mesh holds every
    processor and the cost is a non-negative number; a violation raises
    {!Bp_util.Err.Graph_malformed}. *)

val random_placement :
  seed:int -> Bp_analysis.Dataflow.t -> Bp_sim.Mapping.t -> placement
(** A uniformly random placement (the annealer's starting point), useful as
    a baseline in the ablation bench. *)
