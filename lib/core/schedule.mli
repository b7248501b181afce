(** Schedules: the output of the PSA (paper Section 3).

    A schedule assigns each MDG node a set of physical processors and a
    [start, finish) interval.  Zero-duration entries (dummy nodes) are
    permitted. *)

type entry = {
  node : int;
  procs : int array;   (** sorted, distinct physical processor ids *)
  start : float;
  finish : float;
}

type t

val make : machine_procs:int -> entry list -> t
(** Builds and validates basic well-formedness: every processor id is
    inside the machine, each entry's ids are sorted and distinct,
    intervals are ordered, one entry per node.  Raises
    [Invalid_argument] otherwise, naming the first broken rule in that
    checking order: a repeated node, no processors, ids not sorted
    (anywhere in the entry), then the first id, in array order, that is
    outside the machine or listed twice, then a bad interval.  One pass
    over each entry's ids checks them. *)

val machine_procs : t -> int

val entries : t -> entry list
(** Sorted by start time (ties by node id). *)

val entry : t -> int -> entry
(** Entry for a node id; raises [Not_found]. *)

val makespan : t -> float

val num_entries : t -> int

val allocation : t -> int -> int
(** Number of processors used by a node. *)

val validate :
  Costmodel.Params.t -> Mdg.Graph.t -> t -> (unit, string list) result
(** Deep validation against the graph and cost model:
    - every graph node is scheduled;
    - no processor runs two nodes at once;
    - precedence: a node starts no earlier than each predecessor's
      finish plus the network delay [t^D] under the schedule's
      allocation;
    - each entry's duration equals the model node weight [Tᵢ] under
      the schedule's allocation (within tolerance). *)

val busy_area : t -> float
(** [Σ (finish - start)·|procs|] over entries — the processor-time
    area actually reserved by the schedule. *)

val pp : Format.formatter -> t -> unit
