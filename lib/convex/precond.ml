(* Jacobi (diagonal) preconditioner for the solver's projected CG.

   The tape exposes the exact diagonal of the Gauss–Newton part of the
   smoothed Hessian ({!Tape.hess_diag}); a diagonal solve with it is
   the classical Jacobi preconditioner.  The posynomial terms span
   wildly different magnitudes (per-node work terms vs. critical-path
   sums), which is precisely the per-coordinate scaling imbalance
   Jacobi repairs, so even this cheapest preconditioner cuts the CG
   iteration count visibly (the `solver.cg_iters` Obs counter tracks
   it). *)

module Vec = Numeric.Vec

(* Relative floor for diagonal entries: entries below [floor_rel] times
   the largest free entry (or nonpositive, or non-finite ones) are
   clamped up so the preconditioner stays SPD and bounded.

   The floor doubles as a damping term, and its size matters: the
   Gauss-Newton diagonal drops the smoothed-max coupling curvature, so
   a coordinate living only in currently-losing max branches reports
   near-zero curvature even though a modest move flips the branch (a
   kink the quadratic model cannot see).  At 1e-10 the Jacobi inverse
   amplified such coordinates ~1e10-fold, Armijo then shrank every
   step to protect them, and on kink-heavy instances the Newton stage
   stalled percents above the optimum.  1e-6 caps the amplification
   while leaving genuinely-scaled coordinates untouched (measured:
   same-or-better CG counts, stalls gone). *)
let floor_rel = 1e-6

let jacobi_clamp ~free m =
  let n = Vec.dim m in
  let dmax = ref 0.0 in
  for i = 0 to n - 1 do
    if free.(i) && Float.is_finite m.(i) && m.(i) > !dmax then dmax := m.(i)
  done;
  if !dmax > 0.0 then begin
    let fl = floor_rel *. !dmax in
    for i = 0 to n - 1 do
      m.(i) <- (if Float.is_finite m.(i) && m.(i) > fl then m.(i) else fl)
    done
  end
  else
    (* Degenerate diagonal (e.g. every free coordinate dead at this
       point): fall back to the identity, i.e. unpreconditioned CG. *)
    Array.fill m 0 n 1.0
