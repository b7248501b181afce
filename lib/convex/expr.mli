(** Convex expression DAGs over log-transformed variables.

    The allocation objective of the paper (Section 2) is built from
    posynomial terms [c · Π pᵢ^aᵢ].  Substituting [xᵢ = ln pᵢ] turns
    each term into [c · exp(Σ aᵢ xᵢ)], which is convex in x; sums,
    positive scalings and pointwise maxima preserve convexity, so every
    expression representable here is convex in x.

    Expressions are hash-consed into a DAG by construction (every node
    carries a unique id) and evaluated with memoisation, so shared
    subterms — e.g. the finish-time recurrences [yᵢ] reused by many
    successors — cost O(DAG size), not O(tree size).

    The pointwise [max] is optionally smoothed by log-sum-exp with
    temperature [mu]: [smax(v) = mu·ln Σ exp(vₖ/mu)].  Smoothing keeps
    the objective differentiable for the projected-gradient solver and
    upper-bounds the true max by at most [mu·ln k]. *)

type t

type view =
  | V_const of float
  | V_term of { coeff : float; expts : (int * float) array }
  | V_sum of t array
  | V_max of t array
  | V_scale of float * t
      (** One-level structural view of a node, for compilers over the
          DAG (see {!Tape}).  The arrays are the node's own storage —
          treat them as read-only. *)

val view : t -> view

val id : t -> int
(** Unique node identifier (for memo tables and testing). *)

val const : float -> t
(** Constant; must be non-negative and finite to preserve the
    posynomial discipline. *)

val term : coeff:float -> expts:(int * float) list -> t
(** [term ~coeff ~expts] is [coeff · exp(Σ (i,a) ∈ expts. a·xᵢ)], i.e.
    the posynomial monomial [coeff · Π pᵢ^a].  [coeff] must be positive
    and finite.  Duplicate variable indices are summed. *)

val sum : t list -> t
(** Sum of subexpressions; [sum []] is [const 0.]. *)

val max_ : t list -> t
(** Pointwise maximum; requires a non-empty list. *)

val scale : float -> t -> t
(** Multiply by a non-negative constant. *)

val add : t -> t -> t

val num_nodes : t -> int
(** Number of distinct DAG nodes reachable from the root. *)

val max_var : t -> int
(** Largest variable index referenced, or [-1] if none. *)

val eval : ?mu:float -> t -> Numeric.Vec.t -> float
(** Evaluate at x.  [mu <= 0.] (default) gives the exact max; [mu > 0.]
    gives the log-sum-exp smoothed upper bound. *)

val eval_grad : ?mu:float -> t -> Numeric.Vec.t -> float * Numeric.Vec.t
(** Value and (sub)gradient at x.  With [mu <= 0.] the max contributes
    the gradient of one maximising branch (a valid subgradient); with
    [mu > 0.] the softmax-weighted combination (the exact gradient of
    the smoothed function). *)

val eval_p : ?mu:float -> t -> Numeric.Vec.t -> float
(** Evaluate with variables given in p-space (processor counts);
    equivalent to [eval expr (map ln p)].  All components must be
    positive. *)

val pp : Format.formatter -> t -> unit
(** Structural printer (debugging aid). *)
