(** Jacobi (diagonal) preconditioning for the projected Newton-CG.

    Built from the tape's Gauss–Newton Hessian diagonal
    ({!Tape.hess_diag}); see {!Solver} for where it enters the CG
    recurrence.  With the preconditioner disabled the solver runs the
    same recurrence with the identity diagonal, which reproduces plain
    CG bit for bit. *)

val jacobi_clamp : free:bool array -> Numeric.Vec.t -> unit
(** Clamp a raw (possibly indefinite or singular) Hessian diagonal
    into an SPD Jacobi preconditioner, in place: entries that are
    non-finite, nonpositive or tiny relative to the largest free entry
    are raised to a relative floor.  When no free entry is usable the
    diagonal is reset to the identity. *)
