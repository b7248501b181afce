module Vec = Numeric.Vec

type problem = {
  objective : Expr.t;
  lo : Vec.t;
  hi : Vec.t;
}

type options = {
  tol : float;
  mu_init : float;
  mu_final : float;
  mu_decay : float;
  armijo_c : float;
  armijo_shrink : float;
  newton_max_iters : int;
  cg_max_iters : int;
  precondition : bool;
}

let default_options =
  {
    tol = 1e-6;
    mu_init = 1e-2;
    mu_final = 1e-6;
    mu_decay = 0.01;
    armijo_c = 1e-4;
    armijo_shrink = 0.5;
    newton_max_iters = 20;
    cg_max_iters = 8;
    precondition = true;
  }

type result = {
  x : Vec.t;
  value : float;
  iterations : int;
  stages : int;
  converged : bool;
  hvp_evals : int;
  cg_iterations : int;
}

type compiled = {
  tape : Tape.t;
  ws : Tape.workspace;
}

let compile_tape ?(obs = Obs.null) build =
  Obs.span obs ~cat:"solver" "solver.compile" @@ fun () ->
  let tape = build () in
  if Obs.enabled obs then
    Obs.counter obs "solver.tape"
      [
        ("slots", float_of_int (Tape.num_slots tape));
        ("term_entries", float_of_int (Tape.num_term_entries tape));
        ("children", float_of_int (Tape.num_children tape));
        ("vars", float_of_int (Tape.n_vars tape));
      ];
  { tape; ws = Tape.create_workspace tape }

let compile ?obs expr = compile_tape ?obs (fun () -> Tape.compile expr)

let eval_compiled ?(mu = 0.0) c x = Tape.eval ~mu c.tape c.ws x

let compiled_branches c = Tape.root_branches c.tape c.ws

let check_box name lo hi =
  let n = Vec.dim lo in
  if Vec.dim hi <> n then invalid_arg (name ^ ": lo/hi dimension mismatch");
  for i = 0 to n - 1 do
    if lo.(i) > hi.(i) then invalid_arg (name ^ ": empty box")
  done

let check_options name o =
  let in_unit field v =
    if not (v > 0.0 && v < 1.0) then
      invalid_arg (Printf.sprintf "%s: options.%s must lie in (0, 1)" name field)
  in
  in_unit "mu_decay" o.mu_decay;
  in_unit "armijo_shrink" o.armijo_shrink

let clamp1 lo hi v = if v < lo then lo else if v > hi then hi else v

let grid_steps = 40

(* The step for grid index k, armijo_shrink^k, by the same repeated
   multiplication a backtracking loop from alpha = 1 performs, so each
   step is bit-identical to the one that loop tries after k shrinks. *)
let step_grid shrink =
  let a = Array.make grid_steps 1.0 in
  for k = 1 to grid_steps - 1 do
    a.(k) <- a.(k - 1) *. shrink
  done;
  a

let grid_search ~start accept =
  if start < 0 || start >= grid_steps then
    invalid_arg "Solver.grid_search: start outside the grid";
  (* [k] is accepted: climb to longer steps while they are accepted. *)
  let rec up k = if k > 0 && accept (k - 1) then up (k - 1) else k in
  let rec down k =
    if k >= grid_steps then None else if accept k then Some k else down (k + 1)
  in
  (* Nothing at or below the start: the longer steps, from alpha = 1. *)
  let rec scan k =
    if k >= start then None else if accept k then Some k else scan (k + 1)
  in
  if accept start then Some (up start)
  else match down (start + 1) with Some k -> Some k | None -> scan 0

(* What one Newton stage did: outer iterations, CG iterations and HVPs,
   whether it stopped on its tolerance, and its projected-arc searches
   (Newton and gradient-arc fallback alike), their trial sweeps and the
   fallbacks among them. *)
type newton_stats = {
  outer : int;
  cg_iters : int;
  hvps : int;
  hit_tol : bool;
  searches : int;
  trials : int;
  fallbacks : int;
}

(* One stage of projected (two-metric) Newton-CG at a fixed smoothing
   temperature over the compiled tape [c].  Each outer iteration
   computes the gradient, freezes the active box faces (bound reached,
   gradient pushing outward), solves [H d = -g] on the free variables
   by Jacobi-preconditioned conjugate gradients driven by masked tape
   Hessian-vector products, fills the active components with steepest
   descent and searches the step grid along the projected arc.  The CG
   is inexact (Eisenstat–Walker-style forcing), so far from the optimum
   a handful of HVPs buy a Newton-quality step, while near it the
   tolerance tightens for superlinear convergence.  With
   [opts.precondition] false the identity diagonal reproduces plain CG
   bit for bit.  [grid] is {!step_grid}; [last_k] is the grid index of
   the last accepted Newton step, carried across the stages of one
   solve.  All buffers are caller-owned; [x] and [g] are updated in
   place.  The stage keeps the tape's eval_grad → mask → masked-HVP
   protocol: no other sweep runs through [c]'s workspace between the
   gradient sweep and the end of CG. *)
let newton_stage ~opts ~tol ~mu c ~grid ~last_k ~lo ~hi ~x ~g ~cand ~d ~r ~p
    ~hp ~z ~mdiag ~free =
  let n = Vec.dim x in
  let outer = ref 0 and cg_total = ref 0 and hvps = ref 0 in
  let searches = ref 0 and trials = ref 0 and fallbacks = ref 0 in
  let hit_tol = ref false in
  (* Fill [cand] with the projected-arc point [x + alpha d] and return
     the gradient's inner product with the move. *)
  let arc alpha =
    let gd = ref 0.0 in
    for i = 0 to n - 1 do
      let ci = clamp1 lo.(i) hi.(i) (x.(i) +. (alpha *. d.(i))) in
      cand.(i) <- ci;
      gd := !gd +. (g.(i) *. (ci -. x.(i)))
    done;
    !gd
  in
  let f_prev = ref infinity in
  (try
     for _ = 1 to opts.newton_max_iters do
       incr outer;
       let fx = Tape.eval_grad ~mu c.tape c.ws ~x ~grad:g in
       (* Stationarity: the projected-gradient step length, plus an
          objective-stall stop — with inexact CG the iterates can keep
          inching below the step tolerance long after the objective has
          converged, so a relative decrease under [tol] ends the stage. *)
       let pg = ref 0.0 in
       for i = 0 to n - 1 do
         let step = x.(i) -. clamp1 lo.(i) hi.(i) (x.(i) -. g.(i)) in
         if Float.abs step > !pg then pg := Float.abs step
       done;
       if !pg < tol then begin
         hit_tol := true;
         raise Exit
       end;
       let stalled = !f_prev -. fx < tol *. (1.0 +. Float.abs fx) in
       f_prev := fx;
       if stalled then begin
         (* The Newton steps have stalled.  Before concluding the
            stage, vet the stall against a plain projected-gradient
            step: a truncated or floor-damped CG direction can inch
            along while the gradient still descends, and exiting on
            the inching alone leaves the stage measurably short of
            stationarity on kink-heavy instances. *)
         (* Strict descent, not Armijo sufficient decrease: in a kink
            valley of the max the function can drop well below [fx]
            at step lengths where the linear model grossly
            over-promises, so the Armijo test rejects exactly the
            steps that escape the valley. *)
         let rec gprobe alpha tries =
           if tries = 0 then None
           else begin
             for i = 0 to n - 1 do
               cand.(i) <- clamp1 lo.(i) hi.(i) (x.(i) -. (alpha *. g.(i)))
             done;
             let fc = Tape.eval ~mu c.tape c.ws cand in
             if fc < fx then Some fc
             else gprobe (alpha *. opts.armijo_shrink) (tries - 1)
           end
         in
         match gprobe 1.0 40 with
         | Some fc when fx -. fc >= tol *. (1.0 +. Float.abs fx) ->
             (* Real descent remains: take the gradient step and keep
                the stage alive. *)
             Array.blit cand 0 x 0 n
         | _ ->
             hit_tol := true;
             raise Exit
       end
       else begin
       (* Active faces: at a bound with the gradient pushing outward. *)
       for i = 0 to n - 1 do
         let eps = 1e-9 *. (1.0 +. (hi.(i) -. lo.(i))) in
         free.(i) <-
           not
             ((x.(i) <= lo.(i) +. eps && g.(i) > 0.0)
             || (x.(i) >= hi.(i) -. eps && g.(i) < 0.0))
       done;
       (* Mask the tape to the free set (the HVPs below sweep only the
          live instructions), then build the Jacobi preconditioner
          from the Gauss–Newton diagonal.  Both reuse the values and
          adjoints the gradient sweep above left in the workspace, so no
          further sweep may run until CG is done. *)
       Tape.hvp_mask ~mu c.tape c.ws ~free;
       if opts.precondition then begin
         Tape.hess_diag c.tape c.ws ~diag:mdiag;
         ignore (Precond.jacobi_clamp ~free mdiag)
       end
       else Array.fill mdiag 0 n 1.0;
       (* Preconditioned CG on the free subspace: H restricted by
          zeroing the direction on active faces before the HVP and its
          result after; stopping still measures the plain residual. *)
       let rs = ref 0.0 and rz = ref 0.0 in
       for i = 0 to n - 1 do
         d.(i) <- 0.0;
         r.(i) <- (if free.(i) then -.g.(i) else 0.0);
         z.(i) <- r.(i) /. mdiag.(i);
         p.(i) <- z.(i);
         rs := !rs +. (r.(i) *. r.(i));
         rz := !rz +. (r.(i) *. z.(i))
       done;
       let gnorm = sqrt !rs in
       let cg_tol =
         gnorm *. Float.min 0.5 (sqrt (gnorm /. (1.0 +. Float.abs fx)))
       in
       (let continue_cg = ref (gnorm > 0.0) in
        let iter = ref 0 in
        while !continue_cg && !iter < Int.min opts.cg_max_iters n do
          incr iter;
          incr cg_total;
          Tape.hvp_masked c.tape c.ws ~x ~dx:p ~hvp:hp;
          incr hvps;
          let php = ref 0.0 in
          for i = 0 to n - 1 do
            if not free.(i) then hp.(i) <- 0.0;
            php := !php +. (p.(i) *. hp.(i))
          done;
          if !php <= 0.0 then begin
            (* Numerical curvature loss (the objective is convex):
               fall back to (preconditioned) steepest descent if no
               step was built. *)
            if Array.for_all (fun di -> di = 0.0) d then
              Array.blit z 0 d 0 n;
            continue_cg := false
          end
          else begin
            let alpha = !rz /. !php in
            let rs' = ref 0.0 in
            for i = 0 to n - 1 do
              d.(i) <- d.(i) +. (alpha *. p.(i));
              r.(i) <- r.(i) -. (alpha *. hp.(i));
              rs' := !rs' +. (r.(i) *. r.(i))
            done;
            if sqrt !rs' <= cg_tol then continue_cg := false
            else begin
              let rz' = ref 0.0 in
              for i = 0 to n - 1 do
                z.(i) <- r.(i) /. mdiag.(i);
                rz' := !rz' +. (r.(i) *. z.(i))
              done;
              let beta = !rz' /. !rz in
              for i = 0 to n - 1 do
                p.(i) <- z.(i) +. (beta *. p.(i))
              done;
              rz := !rz'
            end;
            rs := !rs'
          end
        done);
       (* Active components move by steepest descent; the projection
          keeps them on (or returns them to) their faces. *)
       for i = 0 to n - 1 do
         if not free.(i) then d.(i) <- -.g.(i)
       done;
       (* Armijo on the projected arc, over the step grid. *)
       let accept k =
         incr trials;
         let gd = arc grid.(k) in
         let fc = Tape.eval ~mu c.tape c.ws cand in
         fc <= fx +. (opts.armijo_c *. gd) && gd < 0.0
       in
       (* The accepted steps of one stage shrink slowly, so the Newton
          search starts one grid step above the last accepted one.  On
          an arc no box face bends, Phi's convexity in x makes the
          accepted grid indices upward-closed, and the search then finds
          the same step as a scan from alpha = 1. *)
       incr searches;
       let step =
         match grid_search ~start:(Int.max 0 (!last_k - 1)) accept with
         | Some k ->
             last_k := k;
             Some k
         | None ->
             (* No descent along the Newton arc.  A truncated (or
                badly preconditioned) CG direction can fail Armijo
                while the plain projected gradient still descends, so
                fall back before declaring the stage converged —
                without this the stage can stop percents above the
                optimum on kink-heavy instances. *)
             for i = 0 to n - 1 do
               d.(i) <- -.g.(i)
             done;
             incr searches;
             incr fallbacks;
             grid_search ~start:0 accept
       in
       match step with
       | None ->
           (* Not even the projected gradient descends: the iterate is
              as good as this stage can make it. *)
           hit_tol := true;
           raise Exit
       | Some k ->
           (* A tiny accepted step is NOT an exit on its own: a badly
              scaled CG direction can produce sub-[tol] moves far from
              stationarity.  The next iteration's objective-stall
              check vets such creep against a projected-gradient probe
              before the stage may conclude.  The last trial may have
              been a rejected longer step, so rebuild the accepted
              point. *)
           ignore (arc grid.(k));
           Array.blit cand 0 x 0 n
       end
     done
   with Exit -> ());
  {
    outer = !outer;
    cg_iters = !cg_total;
    hvps = !hvps;
    hit_tol = !hit_tol;
    searches = !searches;
    trials = !trials;
    fallbacks = !fallbacks;
  }

let start_point name ?x0 lo hi =
  let n = Vec.dim lo in
  match x0 with
  | Some x ->
      if Vec.dim x <> n then invalid_arg (name ^ ": x0 dimension mismatch");
      Vec.clamp ~lo ~hi x
  | None -> Vec.init n (fun i -> (lo.(i) +. hi.(i)) /. 2.0)

(* The staged solve proper, after the box and option checks (see
   [solve_compiled]); [name] prefixes its error messages. *)
let run ~options ~obs ?x0 name c ~lo ~hi =
  let n = Vec.dim lo in
  if Tape.n_vars c.tape > n then
    invalid_arg (name ^ ": tape references variables outside the box");
  let x = start_point name ?x0 lo hi in
  Obs.span obs ~cat:"solver" "solver.solve"
    ~args:[ ("vars", Obs.Events.Int n) ]
  @@ fun () ->
  let g = Vec.create n 0.0 in
  let f ~mu x = Tape.eval ~mu c.tape c.ws x in
  let fg ~mu x = Tape.eval_grad ~mu c.tape c.ws ~x ~grad:g in
  let cand = Vec.create n 0.0 in
  (* Newton-CG buffers (step, residual, CG direction, H·p,
     preconditioned residual, preconditioner diagonal, active-set
     mask) — allocated once per solve, reused across stages. *)
  let d = Vec.create n 0.0 in
  let r = Vec.create n 0.0 in
  let p = Vec.create n 0.0 in
  let hp = Vec.create n 0.0 in
  let z = Vec.create n 0.0 in
  let mdiag = Vec.create n 1.0 in
  let free = Array.make n true in
  let grid = step_grid options.armijo_shrink in
  let last_k = ref 0 in
  (* Scale smoothing temperatures by the magnitude of the objective so
     the anneal behaves the same for millisecond- and second-scale
     costs. *)
  let f_start = f ~mu:0.0 x in
  (* Monotonicity guard for warm starts: remember the (projected)
     caller-supplied point so the solve can never return anything
     worse than it. *)
  let start_copy =
    match x0 with Some _ -> Some (Array.copy x, f_start) | None -> None
  in
  let f0 = Float.max (Float.abs f_start) 1e-30 in
  let mu_init = options.mu_init *. f0 in
  let mu_final = options.mu_final *. f0 in
  let total_iters = ref 0 in
  let stages_done = ref 0 in
  let total_hvps = ref 0 in
  let total_cg = ref 0 in
  let last_obj = ref Float.nan in
  (* Per-stage convergence telemetry: smoothing temperature and the
     exact objective reached.  The extra exact evaluation only happens
     with a live sink. *)
  let report ~mu =
    if Obs.enabled obs then begin
      let f_exact = f ~mu:0.0 x in
      let decrease =
        if Float.is_nan !last_obj then 0.0 else !last_obj -. f_exact
      in
      last_obj := f_exact;
      Obs.counter obs "solver.stage"
        [
          ("stage", float_of_int !stages_done);
          ("mu", mu);
          ("objective", f_exact);
          ("decrease", decrease);
        ]
    end
  in
  let run_stage mu =
    (* Every stage is a projected Newton-CG stage, including the exact
       (mu = 0) polish, where the masked HVP is the generalised Hessian
       of the active piece: a projected-Newton step along it is what
       pushes the last ~1e-3 of a stalled anneal out (first-order steps
       zig-zag on the kinks of the max and stall above the optimum).
       Intermediate smoothed stages only guide the anneal — the next
       stage re-solves at a tighter temperature anyway — so they stop on
       a loose tolerance; only the tightest smoothed stage and the exact
       polish run to full [options.tol].  The loose stages are also the
       expensive ones: at large mu the smoothed-max curvature couples
       almost the whole tape into the masked HVPs. *)
    let tol =
      if mu > mu_final *. 1.000001 then Float.max options.tol 1e-4
      else options.tol
    in
    let s =
      newton_stage ~opts:options ~tol ~mu c ~grid ~last_k ~lo ~hi ~x ~g ~cand
        ~d ~r ~p ~hp ~z ~mdiag ~free
    in
    total_iters := !total_iters + s.outer;
    total_hvps := !total_hvps + s.hvps;
    total_cg := !total_cg + s.cg_iters;
    if Obs.enabled obs then begin
      let stage = ("stage", float_of_int !stages_done) in
      Obs.counter obs "solver.hvp" [ stage; ("hvps", float_of_int s.hvps) ];
      Obs.counter obs "solver.cg_iters"
        [
          stage;
          ("newton_iters", float_of_int s.outer);
          ("cg_iters", float_of_int s.cg_iters);
        ];
      Obs.counter obs "solver.linesearch"
        [
          stage;
          ("searches", float_of_int s.searches);
          ("trials", float_of_int s.trials);
          ("fallbacks", float_of_int s.fallbacks);
          ("last_index", float_of_int !last_k);
        ]
    end;
    incr stages_done;
    report ~mu;
    s.hit_tol
  in
  (* Warm starts: when the caller supplies [x0] and it is already
     near-optimal at the tightest smoothing temperature, the anneal
     from [mu_init] is redundant — skip straight to [mu_final].
     Near-optimality is probed by one Armijo-backtracked projected
     gradient step: near the optimum no step can decrease the smoothed
     objective appreciably, while from a far start the probe finds a
     substantial decrease.  (The raw projected-gradient length does not
     separate the two at tight smoothing — the smoothed gradient at a
     kink of the max is O(1) even at the exact optimum.)  Skipping is
     safe for correctness — the problem is convex and the skipped-to
     stage still solves to full tolerance — the anneal only exists to
     guide a cold start. *)
  let mu = ref mu_init in
  (match x0 with
  | Some _ when mu_init > mu_final ->
      (* Achievable Armijo-backtracked decrease of the mu_final-smoothed
         objective from [x]: the same sufficient-decrease test the
         stages themselves run, so "no achievable decrease" means [x]
         already satisfies the stage stopping criterion. *)
      let fx = fg ~mu:mu_final x in
      let rec probe alpha tries =
        if tries = 0 then 0.0
        else begin
          let gd = ref 0.0 in
          for i = 0 to n - 1 do
            let ci = clamp1 lo.(i) hi.(i) (x.(i) -. (alpha *. g.(i))) in
            cand.(i) <- ci;
            gd := !gd +. (g.(i) *. (ci -. x.(i)))
          done;
          let fc = f ~mu:mu_final cand in
          if fc <= fx +. (options.armijo_c *. !gd) && !gd < 0.0 then fx -. fc
          else probe (alpha *. options.armijo_shrink) (tries - 1)
        end
      in
      let decrease = probe 1.0 30 in
      (* Skip only when the probe cannot decrease the objective by more
         than the stages' own relative stall tolerance — i.e. [x0]
         already satisfies the stopping criterion the skipped stages
         would be run to meet.  Empirically this separates re-solves of
         the same problem (probe decrease ~1e-8..1e-7, skip) from
         starts carried over from a perturbed problem (~1e-5..1e-4,
         anneal), where the carried-over point sits on kinks of the max
         and needs the anneal to recover full accuracy. *)
      let skip = decrease <= options.tol *. (1.0 +. Float.abs fx) in
      if skip then mu := mu_final;
      if Obs.enabled obs then
        Obs.counter obs "solver.warm_start"
          [
            ("provided", 1.0);
            ("skipped_to_mu_final", if skip then 1.0 else 0.0);
            ("probe_decrease", decrease);
          ]
  | _ -> ());
  let ok =
    let continue = ref true in
    while !continue do
      ignore (run_stage !mu);
      (* The relative slack absorbs decay rounding: with decay 0.01,
         1e-4 ·. 0.01 lands a hair above 1e-6 in floats, and an exact
         [<=] would run a whole duplicate stage at ~mu_final. *)
      if !mu <= mu_final *. 1.000001 then continue := false
      else mu := Float.max (!mu *. options.mu_decay) mu_final
    done;
    (* Finish with one exact (subgradient) polishing stage;
       convergence is judged on this final stage (intermediate
       smoothed stages need not reach full tolerance to anneal
       onward). *)
    let ok = ref (run_stage 0.0) in
    (* Kink-valley escape: the exact polish can park on a kink where
       every mu = 0 subgradient direction ascends, yet the
       mu_final-smoothed gradient — which averages the branches and
       so points along the valley floor — still finds O(1e-4..1e-3)
       of descent.  Probe for that, and when present re-descend the
       tightest smoothed stage and re-polish, keeping the best exact
       point (two passes bound the cost; in practice one suffices). *)
    let strict_descent mu =
      let fx = fg ~mu x in
      let rec probe alpha tries =
        if tries = 0 then 0.0
        else begin
          for i = 0 to n - 1 do
            cand.(i) <- clamp1 lo.(i) hi.(i) (x.(i) -. (alpha *. g.(i)))
          done;
          let fc = f ~mu cand in
          if fc < fx then fx -. fc else probe (alpha /. 2.0) (tries - 1)
        end
      in
      (fx, probe 1.0 30)
    in
    (try
       for _ = 1 to 2 do
         let fx, d = strict_descent mu_final in
         if d <= options.tol *. (1.0 +. Float.abs fx) then raise Exit;
         let best_x = Array.copy x in
         let best_v = f ~mu:0.0 x in
         ignore (run_stage mu_final);
         ok := run_stage 0.0;
         if f ~mu:0.0 x >= best_v then begin
           Array.blit best_x 0 x 0 n;
           raise Exit
         end
       done
     with Exit -> ());
    !ok
  in
  let value = f ~mu:0.0 x in
  let value =
    match start_copy with
    | Some (x_init, f_init) when f_init < value ->
        Array.blit x_init 0 x 0 n;
        f_init
    | _ -> value
  in
  {
    x;
    value;
    iterations = !total_iters;
    stages = !stages_done;
    converged = ok;
    hvp_evals = !total_hvps;
    cg_iterations = !total_cg;
  }

let solve_compiled ?(options = default_options) ?(obs = Obs.null) ?x0 c ~lo ~hi
    =
  check_box "Solver.solve_compiled" lo hi;
  check_options "Solver.solve_compiled" options;
  run ~options ~obs ?x0 "Solver.solve_compiled" c ~lo ~hi

let solve ?(options = default_options) ?(obs = Obs.null) ?x0
    { objective; lo; hi } =
  check_box "Solver.solve" lo hi;
  check_options "Solver.solve" options;
  if Expr.max_var objective >= Vec.dim lo then
    invalid_arg "Solver.solve: objective references variables outside the box";
  run ~options ~obs ?x0 "Solver.solve" (compile ~obs objective) ~lo ~hi
