module P = Convex.Posynomial

let cost (proc : Params.processing) p =
  if not (p >= 1.0) then invalid_arg "Processing.cost: p < 1";
  (proc.alpha +. ((1.0 -. proc.alpha) /. p)) *. proc.tau

let cost_int proc p = cost proc (float_of_int p)

(* Zero-cost kernels (dummies) still need a valid posynomial; the empty
   posynomial represents them exactly. *)
let posynomial (proc : Params.processing) ~var =
  let serial = proc.alpha *. proc.tau in
  let parallel = (1.0 -. proc.alpha) *. proc.tau in
  P.sum
    [
      (if serial > 0.0 then P.monomial serial [] else P.zero);
      (if parallel > 0.0 then P.monomial parallel [ (var, -1.0) ] else P.zero);
    ]

let posynomial_times_p (proc : Params.processing) ~var =
  P.mul_var var 1.0 (posynomial proc ~var)

let expr proc ~var = P.to_expr (posynomial proc ~var)

let expr_times_p proc ~var = P.to_expr (posynomial_times_p proc ~var)

let limit (proc : Params.processing) = proc.alpha *. proc.tau

let best_speedup (proc : Params.processing) ~procs =
  if procs < 1 then invalid_arg "Processing.best_speedup: procs < 1";
  proc.tau /. cost_int proc procs
