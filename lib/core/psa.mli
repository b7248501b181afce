(** The Prioritised Scheduling Algorithm (paper Section 3).

    Steps:
    + round the convex program's real allocation to the nearest power
      of two (never changing a node's allocation by more than a factor
      in [2/3, 4/3]);
    + clamp every allocation to the processor bound PB chosen by
      Corollary 1 (or supplied explicitly);
    + recompute node and edge weights under the new allocation;
    + list-schedule: repeatedly pick the ready node with the lowest
      Earliest Start Time and place it on the required number of
      processors at [max(EST, PST)], where PST is the earliest time
      that many processors are simultaneously free.

    The list scheduler keeps every processor in one array sorted by
    (time free, id), and that order holds from node to node.  A node
    needing k processors takes the first k, which are the k
    earliest-free with ties to the lowest id, and one merge returns
    them, all free at the node's finish time, to their place.  Picking
    processors therefore costs O(p + k log k) per node on a
    p-processor machine, not the O(k·p) of a fresh selection per
    node, and gives the same schedule. *)

type pb_choice =
  | Auto           (** Corollary 1's optimal power of two *)
  | Fixed of int   (** explicit bound (must be a power of two) *)
  | Unbounded      (** skip the bounding step (PB = machine size) *)

type rounding =
  | Nearest  (** paper's rounding-off step *)
  | Floor    (** ablation: always round down *)
  | Ceil     (** ablation: always round up (clamped to the machine) *)

type priority =
  | Lowest_est  (** paper's prioritisation *)
  | Fifo        (** ablation: plain list scheduling in ready order *)

type options = {
  pb : pb_choice;
  rounding : rounding;
  priority : priority;
}

val default_options : options

type result = {
  schedule : Schedule.t;
  rounded_alloc : int array;   (** after rounding and bounding *)
  pb : int;                    (** the bound actually applied *)
  t_psa : float;               (** finish time of STOP — the PSA's
                                   predicted program finish time *)
}

val round_allocation :
  rounding:rounding -> procs:int -> float array -> int array
(** Steps 1 of the PSA in isolation (exposed for tests/ablation):
    power-of-two rounding clamped to the largest power of two that is
    [<=] the machine size. *)

val apply_bound : pb:int -> int array -> int array
(** Step 2: clamp to PB.  Raises [Invalid_argument] if [pb] is not a
    power of two. *)

val schedule :
  ?options:options ->
  ?obs:Obs.t ->
  Costmodel.Params.t ->
  Mdg.Graph.t ->
  procs:int ->
  alloc:float array ->
  result
(** Run the full PSA on a normalised graph with the given real-valued
    allocation (typically {!Allocation.solve}[.alloc]).

    With a live [obs] sink (default {!Obs.null}: no overhead) every
    node emits a ["psa.round"] instant recording its continuous
    allocation, power-of-two rounding and PB clamp, and every
    list-scheduling placement emits a ["psa.place"] instant with the
    node's EST, PST, start, finish and processor count. *)
