(** Flat instruction tapes with reverse-mode gradients.

    A tape is a flat, topologically sorted instruction array over
    log-space variables: constants, posynomial terms, sums with a
    constant bias, (optionally scaled) maxima and scales.  Every
    [Term]'s exponent list is flattened into shared index/exponent
    arrays, pooled by monomial: under x_i = ln p_i each cost term is
    [c·exp(a·x)] with one of a handful of exponent vectors per node
    and edge, so the tape stores each distinct exponent segment once
    and every term slot with that segment points at it.  A reusable
    {!workspace} holds the per-slot value and adjoint buffers plus a
    softmax-weight slab (sized when the tape is built) for the
    smoothed [max].  Evaluation is one forward sweep over the tape; the
    gradient is a forward sweep followed by a reverse (adjoint) sweep
    that accumulates scalar adjoints straight into the caller's output
    vector — O(|tape|) total, with zero heap allocation once the
    workspace exists.  Every sweep runs serially on the calling domain;
    concurrent evaluators share one tape, each through its own
    workspace.

    A forward sweep calls [exp] once per distinct monomial, not once
    per term slot, and the smoothed max skips the [exp] and [log] calls
    whose results are exact: a branch equal to the max contributes 1, a
    branch more than 746·mu below it contributes +0 (where [exp]
    underflows), and [log 1 = 0].  Every value, gradient and
    Hessian-vector product is bit-identical to evaluating each term and
    branch on its own.

    Two front ends write tapes through one {!Builder}:
    - {!compile} walks an {!Expr} DAG once: constant subtrees are
      folded, constant summands are fused into a per-[Sum] bias,
      single-use sums are spliced into their parent and scales are
      fused into single-use terms and maxima.
    - [Core.Allocation.objective_tape] writes the allocation
      objective straight from the MDG, with no DAG at all.  Its
      contract is equality with this module's {!compile} of
      [Core.Allocation.objective], array for array and bit for bit
      ({!equal}); the test suite checks it on random and paper graphs.

    Semantics match {!Expr.eval} / {!Expr.eval_grad} exactly,
    including the subgradient choice at [mu <= 0] (the first
    maximising branch, in construction order) and the log-sum-exp
    smoothing for [mu > 0]; the reference implementations remain in
    {!Expr} and the test suite cross-checks the two. *)

type t
(** A compiled objective: immutable, shareable between workspaces. *)

type workspace
(** Mutable evaluation buffers for one tape.  Not thread-safe; create
    one workspace per concurrent evaluator. *)

(** Append-only tape construction.  Each call appends one slot (after
    its term or child segment) and returns the slot's index; children
    must already exist, so a tape is built children-first. *)
module Builder : sig
  type tape := t

  type t

  val create : unit -> t

  val const : t -> float -> int
  (** A constant slot.  Equal values (by [compare]) share one slot. *)

  val term : t -> float -> (int * float) array -> int
  (** [term b coeff expts] is [coeff · exp(Σ a·x_i)] over [expts], given
      in ascending variable order as {!Expr} keeps them (the tape stores
      them reversed).  A term whose stored entries (variables and
      exponent bits) equal an earlier term's shares that term's
      segment, so its entries are not stored again.  An empty [expts]
      is the constant [coeff] ({!const}). *)

  val sum : t -> float -> int list -> int
  (** [sum b bias kids] is [bias + Σ kids], with [kids] in reverse
      construction order (the order a cons-accumulating walk produces,
      and the order stored).  A zero-bias sum of one child is that
      child: no slot is added. *)

  val max : t -> float -> int list -> int
  (** [max b f kids] is [f · max kids] (smoothed at [mu > 0]), [kids]
      in construction order. *)

  val scale : t -> float -> int -> int
  (** [scale b f s] is [f · s]. *)

  val finish : t -> root:int -> tape
  (** The finished tape, rooted at slot [root].  {!n_vars} is one more
      than the highest variable of any term. *)
end

val compile : Expr.t -> t
(** One-shot compilation of the DAG reachable from the root. *)

val equal : t -> t -> bool
(** Same instructions, segments, monomial numbering, constants (bit
    for bit), variable count and root. *)

val create_workspace : t -> workspace
(** Fresh buffers sized for the tape.  All subsequent [eval] /
    [eval_grad] calls through this workspace are allocation-free. *)

val n_vars : t -> int
(** Number of variables the tape reads, i.e. {!Expr.max_var}[ + 1]. *)

val num_slots : t -> int
(** Number of instructions (distinct live DAG nodes after folding). *)

val num_term_entries : t -> int
(** Flattened (variable, exponent) pairs stored for the terms: each
    distinct monomial's entries count once, however many term slots
    share them. *)

val num_monomials : t -> int
(** Distinct monomials (exponent segments) of the tape: the [exp]
    calls of one forward sweep's term pre-pass. *)

val num_children : t -> int
(** Total flattened child references across all sums and maxima. *)

val eval : ?mu:float -> t -> workspace -> Numeric.Vec.t -> float
(** Forward sweep; equals {!Expr.eval}[ ~mu root x].  Raises
    [Invalid_argument] if [x] is shorter than {!n_vars}. *)

val root_branches : t -> workspace -> float array
(** When the tape's root is a max: the values of its branches (with
    the root's fused scale factor applied) as left in [workspace] by
    the {e last} forward sweep — call {!eval} at the point (and [mu])
    of interest first.  Branches appear in construction order, so for
    an objective built as [max_ [a; b]] the result is [[| v_a; v_b |]].
    Returns [[||]] when the root is not a max (after simplification).
    Note the branches of a [mu > 0] sweep are themselves smoothed if
    they contain inner maxima. *)

val eval_grad :
  ?mu:float -> t -> workspace -> x:Numeric.Vec.t -> grad:Numeric.Vec.t -> float
(** Forward + reverse sweep.  Overwrites [grad] (which must have the
    same dimension as [x]) with the (sub)gradient and returns the
    value; equals {!Expr.eval_grad}[ ~mu root x]. *)

val eval_hvp :
  ?mu:float ->
  t ->
  workspace ->
  x:Numeric.Vec.t ->
  dx:Numeric.Vec.t ->
  grad:Numeric.Vec.t ->
  hvp:Numeric.Vec.t ->
  float
(** Hessian-vector product by forward-over-reverse: one forward sweep
    carrying first-order tangents along the direction [dx], then one
    reverse sweep propagating both adjoints and adjoint tangents.
    Overwrites [grad] with the gradient (identical to {!eval_grad})
    and [hvp] with [H(x)·dx], and returns the value — all in
    O(|tape|), allocation-free on a warm workspace (roughly twice the
    cost of {!eval_grad}).

    With [mu > 0] the smoothed objective is C² and [hvp] is its exact
    Hessian-vector product.  With [mu <= 0] the objective is piecewise
    smooth; [hvp] is the Hessian of the currently active piece (each
    max differentiates through its first maximising branch, matching
    the subgradient tie-break).

    This dense product over the whole tape is the reference for
    {!hvp_masked}, which must agree with it on the free coordinates;
    the solver does not call it. *)

(** {1 Masked Hessian-vector products}

    Inside projected Newton-CG most coordinates are frozen on box
    faces: tangents enter only through the free coordinates, so most
    of the tape is dead in the HVP's forward-tangent sweep, and (at
    [mu <= 0], where maxima differentiate through one branch) in the
    reverse sweep too.  [hvp_mask] computes, for the current free set,
    the {e active} slots (those whose value depends on a free
    variable) and the {e union} with the slots reachable by adjoint
    tangents; [hvp_masked] then sweeps only those slots.  Results
    equal {!eval_hvp}'s [hvp] on the free coordinates (up to the sign
    of exact zeros); frozen coordinates are returned as zero.

    Protocol: call {!eval_grad} at the point [x] with the same [mu],
    then [hvp_mask], then any number of [hvp_masked] calls — with no
    other sweep through the same workspace in between ([hvp_masked]
    reuses the values, softmax weights, adjoints and max selections
    the gradient sweep left behind). *)

val hvp_mask : ?mu:float -> t -> workspace -> free:bool array -> unit
(** Prepare the mask for the given free set.  [free] must cover all
    tape variables.  Requires a preceding {!eval_grad} with the same
    [mu] on this workspace. *)

val hvp_masked :
  t ->
  workspace ->
  x:Numeric.Vec.t ->
  dx:Numeric.Vec.t ->
  hvp:Numeric.Vec.t ->
  unit
(** Overwrite [hvp] with [H(x)·dx] restricted to the mask's free
    coordinates.  [x] must be the point of the preparing
    {!eval_grad}.  O(active ∪ reachable) per call. *)

val hess_diag : t -> workspace -> diag:Numeric.Vec.t -> unit
(** Overwrite [diag] with the Gauss–Newton diagonal of the Hessian at
    the point of the last {!eval_grad} on this workspace: each
    posynomial term contributes [adj·v·e²] per coordinate; the (PSD)
    smoothed-max curvature is dropped.
    Basis of the solver's Jacobi preconditioner. *)
