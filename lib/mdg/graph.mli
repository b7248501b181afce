(** Macro Dataflow Graphs (paper Section 1.1).

    A weighted DAG whose nodes correspond to loop nests of a program
    and whose edges correspond to precedence constraints carrying data
    transfers.  Node weights (processing + send/receive costs) and edge
    weights (network costs) are *not* stored here — they are functions
    of the processor allocation and are provided by [Costmodel]; the
    graph only records the structural data those functions need: the
    kernel each node runs and the bytes/kind of each transfer. *)

type kernel =
  | Matrix_init of int
      (** initialise an N×N matrix *)
  | Matrix_add of int
      (** add two N×N matrices *)
  | Matrix_multiply of int
      (** multiply two N×N matrices *)
  | Synthetic of { alpha : float; tau : float }
      (** a loop with explicitly given Amdahl parameters (used for the
          paper's Figure 1 example and for random test graphs) *)
  | Dummy
      (** zero-cost START/STOP marker *)

type transfer_kind =
  | Oned  (** ROW2ROW / COL2COL: same distribution dimension *)
  | Twod  (** ROW2COL / COL2ROW: distribution dimension changes *)

type node = private {
  id : int;          (** dense index in [0, num_nodes) *)
  label : string;
  kernel : kernel;
}

type edge = private {
  src : int;
  dst : int;
  bytes : float;     (** total array bytes transferred *)
  kind : transfer_kind;
}

type t

(** {1 Construction} *)

type builder

val create_builder : unit -> builder

val add_node : builder -> label:string -> kernel:kernel -> int
(** Returns the new node's id.  Raises [Invalid_argument] on a matrix
    size below 1, or a synthetic kernel whose [alpha] is outside
    [[0, 1]] or whose [tau] is negative; a NaN or infinite constant is
    rejected too. *)

val add_edge :
  builder -> src:int -> dst:int -> bytes:float -> kind:transfer_kind -> unit
(** Raises [Invalid_argument] on unknown endpoints, self loops, byte
    counts that are negative or not finite, or duplicate (src, dst)
    pairs. *)

val build : builder -> t
(** Validates acyclicity and freezes the graph.  Raises
    [Invalid_argument] if the edge relation has a cycle. *)

(** {1 Accessors} *)

val num_nodes : t -> int

val nodes : t -> node array

val node : t -> int -> node

val edges : t -> edge list

val preds : t -> int -> edge list
(** Incoming edges of a node. *)

val succs : t -> int -> edge list
(** Outgoing edges of a node. *)

val edge_between : t -> src:int -> dst:int -> edge option

val sources : t -> int list
(** Nodes with no predecessors. *)

val sinks : t -> int list
(** Nodes with no successors. *)

(** {1 START/STOP normalisation (paper Section 2)} *)

val normalise : t -> t
(** Ensure the graph has a unique zero-cost START node preceding all
    sources and a unique zero-cost STOP node succeeding all sinks,
    adding [Dummy] nodes (with zero-byte 1D edges) when necessary.
    START is relabelled to id order position but is always a source and
    STOP always a sink.  Idempotent. *)

val is_normalised : t -> bool

val start_node : t -> int
(** The unique source of a normalised graph; raises [Invalid_argument]
    otherwise. *)

val stop_node : t -> int
(** The unique sink of a normalised graph; raises [Invalid_argument]
    otherwise. *)

(** {1 Structural identity} *)

val structural_hash : t -> int64
(** A deterministic 64-bit FNV-1a digest of the graph's structure:
    node count, per-node kernels in id order, and every edge's
    endpoints, byte count and transfer kind.  Node {e labels are
    excluded}.  Stable across processes and runs.  A digest can
    collide, so it identifies a shape only where a collision is
    harmless (drawing distinct workloads); cache keys use {!add_key}. *)

val add_key : Buffer.t -> t -> unit
(** Append the graph's exact key: the data {!structural_hash} digests
    (node count, per-node kernels in id order, every edge's endpoints,
    byte-count bit pattern and transfer kind), in a prefix-free
    encoding.  Two graphs append equal bytes exactly when those data
    are equal, so equal keys mean identical cost expressions.  Node
    labels are excluded — they never affect cost — so two requests
    for the same computation under different names share plan-cache
    entries. *)

val add_kernel_key : Buffer.t -> kernel -> unit
(** Append one kernel's tag and payload, as {!add_key} writes it;
    exposed so cost-model keys encode kernels the same way. *)

(** {1 Kernel helpers} *)

val kernel_flops : kernel -> float
(** Floating-point operation count of a kernel (0 for [Dummy] and
    [Synthetic]). *)

val kernel_bytes : kernel -> float
(** Size in bytes of one N×N double-precision operand of the kernel
    (0 for [Dummy] and [Synthetic]). *)

val pp_kernel : Format.formatter -> kernel -> unit

val pp_transfer_kind : Format.formatter -> transfer_kind -> unit

val pp : Format.formatter -> t -> unit
