(** Processing cost model (paper eq. 1, Lemma 1):
    [t^C(p) = (α + (1-α)/p)·τ]. *)

val cost : Params.processing -> float -> float
(** [cost proc p] for a real processor count [p >= 1].  Raises
    [Invalid_argument] if [p < 1] or [p] is NaN. *)

val cost_int : Params.processing -> int -> float

val posynomial : Params.processing -> var:int -> Convex.Posynomial.t
(** The cost as a posynomial in variable [var]:
    [α·τ + (1-α)·τ·p⁻¹] (Lemma 1). *)

val posynomial_times_p : Params.processing -> var:int -> Convex.Posynomial.t
(** [t^C·p = α·τ·p + (1-α)·τ]: the paper's condition (2) for the
    average-finish-time term. *)

val expr : Params.processing -> var:int -> Convex.Expr.t
(** Convex-expression form for the allocation objective. *)

val expr_times_p : Params.processing -> var:int -> Convex.Expr.t

val limit : Params.processing -> float
(** [lim p→∞ t^C(p) = α·τ]: the serial floor. *)

val best_speedup : Params.processing -> procs:int -> float
(** Speedup of the loop itself at [procs] processors under the model. *)
