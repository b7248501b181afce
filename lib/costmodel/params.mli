(** Machine parameters for the cost models of paper Section 4.

    Transfer parameters correspond to Table 2; per-kernel Amdahl
    processing parameters correspond to Table 1.  In the paper these
    are obtained on the CM-5 by the training-sets approach; here they
    are either the paper's published constants ({!cm5}) or the result
    of fitting against the machine simulator ({!Fit}). *)

type transfer = {
  t_ss : float;  (** message send startup cost, seconds *)
  t_ps : float;  (** per-byte send cost, seconds/byte *)
  t_sr : float;  (** message receive startup cost, seconds *)
  t_pr : float;  (** per-byte receive cost, seconds/byte *)
  t_n : float;   (** network delay per byte, seconds/byte *)
}

type processing = {
  alpha : float;  (** serial fraction, in [0,1] *)
  tau : float;    (** single-processor execution time, seconds *)
}

type t

val make : transfer:transfer -> t
(** Parameter set with an empty processing table. *)

val transfer : t -> transfer

val set_processing : t -> Mdg.Graph.kernel -> processing -> unit
(** Record fitted Amdahl parameters for a kernel.  [Synthetic] and
    [Dummy] kernels are handled implicitly and may not be registered.
    Raises [Invalid_argument] on out-of-range parameters. *)

val processing : t -> Mdg.Graph.kernel -> processing
(** Amdahl parameters for a kernel: [Synthetic] returns its own
    parameters, [Dummy] returns zero cost, matrix kernels are looked
    up.  Raises [Not_found] if a matrix kernel was never registered. *)

val known_kernels : t -> Mdg.Graph.kernel list
(** Registered matrix kernels, deterministically ordered. *)

val add_key : Buffer.t -> t -> unit
(** Append the exact bit patterns of every cost constant: the transfer
    parameters and the registered per-kernel Amdahl pairs (in
    {!known_kernels} order), in a prefix-free encoding.  Equal keys
    yield identical cost expressions on the same graph, so this is the
    cost-constant component of plan-cache keys.  Stable across
    processes. *)

val cm5_transfer : transfer
(** The paper's Table 2 constants for the CM-5. *)

val cm5 : unit -> t
(** Fresh parameter set with Table 2 transfer constants and Table 1
    processing constants for MatAdd(64) and MatMul(64) preregistered. *)

val pp_transfer : Format.formatter -> transfer -> unit

val pp_processing : Format.formatter -> processing -> unit
