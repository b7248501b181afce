(** Data-transfer cost model (paper eqs. 2–3, Lemma 2).

    A transfer of an [L]-byte array from a node on [p_i] processors to a
    node on [p_j] processors has three components:
    - send cost [t^S] (charged to the sending node's weight),
    - network cost [t^D] (the edge weight),
    - receive cost [t^R] (charged to the receiving node's weight).

    The 1D form (ROW2ROW / COL2COL) applies when the distribution
    dimension is unchanged; the 2D form (ROW2COL / COL2ROW) when it
    flips.  All components are posynomial in [p_i, p_j] (Lemma 2) with
    the caveat, noted in DESIGN.md, that the 1D [t^D] involves
    [1/max(p_i,p_j)], which we bound above by [1/√(p_i·p_j)] inside the
    convex objective ([t_n = 0] on the CM-5, so the surrogate is
    inactive in all paper experiments). *)

type components = { send : float; network : float; receive : float }

val components :
  Params.transfer ->
  kind:Mdg.Graph.transfer_kind ->
  bytes:float ->
  p_send:float ->
  p_recv:float ->
  components
(** Exact model values for real processor counts [>= 1].
    Zero-byte transfers (dummy edges) cost zero in every component.
    Raises [Invalid_argument] if [bytes] is negative or not finite, or
    a processor count is below 1 or NaN. *)

val total : components -> float

(** {1 Convex-expression forms}

    Variables are the log-processor-counts of the two endpoint nodes;
    [vi] is the sender's variable index, [vj] the receiver's. *)

val send_expr :
  Params.transfer ->
  kind:Mdg.Graph.transfer_kind ->
  bytes:float ->
  vi:int ->
  vj:int ->
  Convex.Expr.t

val receive_expr :
  Params.transfer ->
  kind:Mdg.Graph.transfer_kind ->
  bytes:float ->
  vi:int ->
  vj:int ->
  Convex.Expr.t

val network_expr :
  Params.transfer ->
  kind:Mdg.Graph.transfer_kind ->
  bytes:float ->
  vi:int ->
  vj:int ->
  Convex.Expr.t
(** Uses the posynomial surrogate [L·t_n/√(p_i·p_j)] for the 1D case. *)

val send_times_p_expr :
  Params.transfer ->
  kind:Mdg.Graph.transfer_kind ->
  bytes:float ->
  vi:int ->
  vj:int ->
  Convex.Expr.t
(** [t^S·p_i], needed by the average-finish-time term (condition 2 of
    Section 2). *)

val receive_times_p_expr :
  Params.transfer ->
  kind:Mdg.Graph.transfer_kind ->
  bytes:float ->
  vi:int ->
  vj:int ->
  Convex.Expr.t
(** [t^R·p_j]. *)

(** {1 Posynomial forms (for Lemma 2 property checks)} *)

val send_posynomial_2d :
  Params.transfer -> bytes:float -> vi:int -> vj:int -> Convex.Posynomial.t

val receive_posynomial_2d :
  Params.transfer -> bytes:float -> vi:int -> vj:int -> Convex.Posynomial.t

val network_posynomial_2d :
  Params.transfer -> bytes:float -> vi:int -> vj:int -> Convex.Posynomial.t
