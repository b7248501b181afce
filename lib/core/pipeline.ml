module G = Mdg.Graph

type config = {
  solver_options : Convex.Solver.options;
  psa_options : Psa.options;
  obs : Obs.t;
  cache : Plan_cache.t option;
  require_convergence : bool;
}

let default_config =
  {
    solver_options = Convex.Solver.default_options;
    psa_options = Psa.default_options;
    obs = Obs.null;
    cache = None;
    require_convergence = false;
  }

let with_solver_options solver_options config = { config with solver_options }

let with_psa_options psa_options config = { config with psa_options }

let with_obs obs config = { config with obs }

let with_cache cache config = { config with cache = Some cache }

let with_require_convergence require_convergence config =
  { config with require_convergence }

type request = {
  params : Costmodel.Params.t;
  graph : Mdg.Graph.t;
  procs : int;
  x0 : Numeric.Vec.t option;
}

let request ?x0 params graph ~procs = { params; graph; procs; x0 }

type error =
  | Invalid_procs of int
  | Missing_calibration of Mdg.Graph.kernel
  | Invalid_request of string
  | Solver_not_converged of { iterations : int; stages : int }

let error_to_string = function
  | Invalid_procs p -> Printf.sprintf "invalid processor count %d (need >= 1)" p
  | Missing_calibration k ->
      Format.asprintf "no cost-model calibration for kernel %a" G.pp_kernel k
  | Invalid_request msg -> Printf.sprintf "invalid request: %s" msg
  | Solver_not_converged { iterations; stages } ->
      Printf.sprintf
        "allocation solver did not converge (%d iterations over %d stages)"
        iterations stages

let error_kind = function
  | Invalid_procs _ -> "invalid_procs"
  | Missing_calibration _ -> "missing_calibration"
  | Invalid_request _ -> "invalid_request"
  | Solver_not_converged _ -> "solver_not_converged"

exception Error of error

type cache_use = Hit | Shape_hit | Miss | Off

type cache_outcome = {
  tape : cache_use;
  warm : cache_use;
  solve_skipped : bool;
  coalesced : bool;
}

type plan = {
  graph : G.t;
  params : Costmodel.Params.t;
  procs : int;
  allocation : Allocation.result;
  psa : Psa.result;
  config : config;
  cache : cache_outcome;
}

let no_cache = { tape = Off; warm = Off; solve_skipped = false; coalesced = false }

(* Allocation/PSA validation failures surface as [Invalid_argument];
   uncalibrated kernels as [Not_found] from the parameter table.  The
   checks below turn the ones a *well-typed* caller can still hit into
   typed errors up front; anything residual (an impossible internal
   state) stays an exception. *)
let validate { params; graph; procs; x0 } =
  if procs < 1 then Result.Error (Invalid_procs procs)
  else
    let g = G.normalise graph in
    let missing =
      Array.fold_left
        (fun acc (nd : G.node) ->
          match acc with
          | Some _ -> acc
          | None -> (
              match Costmodel.Params.processing params nd.kernel with
              | (_ : Costmodel.Params.processing) -> None
              | exception Not_found -> Some nd.kernel))
        None (G.nodes g)
    in
    match missing with
    | Some k -> Result.Error (Missing_calibration k)
    | None -> (
        match x0 with
        | Some x when Numeric.Vec.dim x <> G.num_nodes g ->
            Result.Error
              (Invalid_request
                 (Printf.sprintf "x0 has dimension %d but the graph has %d nodes"
                    (Numeric.Vec.dim x) (G.num_nodes g)))
        | _ -> Result.Ok g)

let emit_cache_counter obs outcome =
  if Obs.enabled obs then
    Obs.counter obs "pipeline.cache"
      [
        ("tape_hit", match outcome.tape with Hit -> 1.0 | _ -> 0.0);
        ( "warm_hit",
          match outcome.warm with Hit | Shape_hit -> 1.0 | _ -> 0.0 );
        ("solve_skipped", if outcome.solve_skipped then 1.0 else 0.0);
        ("coalesced", if outcome.coalesced then 1.0 else 0.0);
      ]

(* Solve the allocation through the configured cache.  An exact
   (graph, constants, procs) duplicate is answered with the cached
   result outright — the solver is deterministic, so re-solving the
   identical problem could only reproduce it.  Otherwise reuse the
   compiled tape for the key and, on a same-shape hit, offer the
   latest sibling optimum as a candidate seed under the keep-better
   guard below. *)
let solve_cached config cache (req : request) g =
  let key =
    {
      Plan_cache.graph_hash = G.structural_hash g;
      fingerprint = Costmodel.Params.fingerprint req.params;
      procs = req.procs;
    }
  in
  let obs = config.obs in
  let hit = match req.x0 with Some _ -> None | None -> Plan_cache.warm cache key in
  match hit with
  | Some (Plan_cache.Exact allocation) ->
      let outcome =
        {
          tape = (if Plan_cache.tape_cached cache key then Hit else Miss);
          warm = Hit;
          solve_skipped = true;
          coalesced = false;
        }
      in
      emit_cache_counter obs outcome;
      (allocation, outcome)
  | (None | Some (Seed _)) as hit ->
      (* The miss path proper: compile (through the tape cache), solve,
         record.  Returns the per-request cache outcome alongside the
         allocation so the coalescing wrapper below can surface the
         leader's view. *)
      let run_miss () =
        let compiled, tape_use =
          Plan_cache.tape cache key ~compile:(fun () ->
              Convex.Solver.compile_tape ~obs (fun () ->
                  Allocation.objective_tape req.params g ~procs:req.procs))
        in
        let solve ?x0 () =
          Allocation.solve ~options:config.solver_options
            ~engine:(`Precompiled compiled) ~obs ?x0 req.params g
            ~procs:req.procs
        in
        let allocation, warm_use =
          match req.x0 with
          | Some x -> (solve ~x0:x (), Off)
          | None -> (
              match hit with
              | Some (Plan_cache.Seed seed) ->
                  (* Warm-serving guarantee: a seeded solve's smoothing
                     ladder is scaled by its start point, so from a
                     sibling optimum it can stall measurably above what
                     the cold solve finds.  Solve cold-deterministically
                     (bit-identical to the uncached path) and use the
                     sibling optimum only as a candidate: when the
                     current objective values it below the cold answer, a
                     seeded re-solve polishes it further, and the better
                     of the two is kept — the seed can improve the plan,
                     never degrade it (test_cache_prop exercises this). *)
                  let cold = solve () in
                  let seed_phi =
                    Convex.Solver.eval_compiled compiled seed
                  in
                  let best =
                    if seed_phi < cold.phi then
                      let seeded = solve ~x0:seed () in
                      if seeded.phi < cold.phi then seeded else cold
                    else cold
                  in
                  (best, Shape_hit)
              | _ -> (solve (), Miss))
        in
        Plan_cache.store_warm cache key allocation;
        (allocation, tape_use, warm_use)
      in
      let allocation, outcome =
        match req.x0 with
        | Some _ ->
            (* An explicit x0 is not part of the cache key, so two
               requests with the same key can legitimately want
               different solves — never coalesce them. *)
            let allocation, tape_use, warm_use = run_miss () in
            ( allocation,
              {
                tape = (match tape_use with `Hit -> Hit | `Miss -> Miss);
                warm = warm_use;
                solve_skipped = false;
                coalesced = false;
              } )
        | None -> (
            (* Singleflight: concurrent identical misses block on one
               solve and share its result; a leader failure re-raises
               in every waiter (caught as a typed error above). *)
            let leader_uses = ref None in
            let allocation, role =
              Plan_cache.coalesce cache key ~solve:(fun () ->
                  let allocation, tape_use, warm_use = run_miss () in
                  leader_uses := Some (tape_use, warm_use);
                  allocation)
            in
            match role with
            | `Leader ->
                let tape_use, warm_use = Option.get !leader_uses in
                ( allocation,
                  {
                    tape = (match tape_use with `Hit -> Hit | `Miss -> Miss);
                    warm = warm_use;
                    solve_skipped = false;
                    coalesced = false;
                  } )
            | `Follower ->
                (* Served by the leader's solve: the tape is resident
                   by now and this request never entered the solver. *)
                ( allocation,
                  { tape = Hit; warm = Hit; solve_skipped = true; coalesced = true }
                ))
      in
      emit_cache_counter obs outcome;
      (allocation, outcome)

let plan ?(config = default_config) (req : request) =
  let obs = config.obs in
  Obs.span obs ~cat:"pipeline" "pipeline.plan"
    ~args:[ ("procs", Obs.Events.Int req.procs) ]
  @@ fun () ->
  match validate req with
  | Error e -> Result.Error e
  | Ok g -> (
      match
        Obs.span obs ~cat:"pipeline" "pipeline.allocate"
          ~args:[ ("nodes", Obs.Events.Int (G.num_nodes g)) ]
          (fun () ->
            match config.cache with
            | Some cache -> solve_cached config cache req g
            | None ->
                ( Allocation.solve ~options:config.solver_options ~obs
                    ?x0:req.x0 req.params g ~procs:req.procs,
                  no_cache ))
      with
      | exception Invalid_argument msg -> Result.Error (Invalid_request msg)
      | allocation, cache ->
          if config.require_convergence && not allocation.solver.converged
          then
            Result.Error
              (Solver_not_converged
                 {
                   iterations = allocation.solver.iterations;
                   stages = allocation.solver.stages;
                 })
          else (
            match
              Obs.span obs ~cat:"pipeline" "pipeline.schedule" (fun () ->
                  Psa.schedule ~options:config.psa_options ~obs req.params g
                    ~procs:req.procs ~alloc:allocation.alloc)
            with
            | exception Invalid_argument msg ->
                Result.Error (Invalid_request msg)
            | psa ->
                Ok
                  {
                    graph = g;
                    params = req.params;
                    procs = req.procs;
                    allocation;
                    psa;
                    config;
                    cache;
                  }))

let plan_exn ?config ?x0 params g ~procs =
  match plan ?config (request ?x0 params g ~procs) with
  | Ok p -> p
  | Result.Error e -> raise (Error e)

let phi p = p.allocation.phi

let predicted_time p = p.psa.t_psa

let schedule p = p.psa.schedule

(* pid 1 carries the MPMD machine timeline, pid 2 the SPMD baseline's,
   so both can coexist with the compiler's pid-0 wall-clock spans in
   one trace file. *)
let mpmd_sim_pid = 1

let spmd_sim_pid = 2

let simulate gt p =
  let obs = p.config.obs in
  let prog =
    Obs.span obs ~cat:"pipeline" "pipeline.codegen" (fun () ->
        Codegen.mpmd gt p.graph p.psa.schedule)
  in
  Obs.span obs ~cat:"pipeline" "pipeline.simulate" (fun () ->
      Machine.Sim.run ~obs ~obs_pid:mpmd_sim_pid gt prog)

let simulate_spmd ?(obs = Obs.null) gt g ~procs =
  let g = G.normalise g in
  let prog =
    Obs.span obs ~cat:"pipeline" "pipeline.codegen_spmd" (fun () ->
        Codegen.spmd gt g ~procs)
  in
  Obs.span obs ~cat:"pipeline" "pipeline.simulate_spmd" (fun () ->
      Machine.Sim.run ~obs ~obs_pid:spmd_sim_pid gt prog)

let serial_time gt g =
  Array.fold_left
    (fun acc (nd : G.node) ->
      acc +. Machine.Ground_truth.kernel_serial_time gt nd.kernel)
    0.0
    (G.nodes (G.normalise g))

type comparison = {
  procs : int;
  serial : float;
  mpmd_time : float;
  spmd_time : float;
  mpmd_speedup : float;
  spmd_speedup : float;
  mpmd_efficiency : float;
  spmd_efficiency : float;
  predicted : float;
  phi : float;
}

let comparison_of ~procs ~serial ~predicted ~phi ~mpmd_time ~spmd_time =
  {
    procs;
    serial;
    mpmd_time;
    spmd_time;
    mpmd_speedup = Numeric.Stats.speedup ~serial ~parallel:mpmd_time;
    spmd_speedup = Numeric.Stats.speedup ~serial ~parallel:spmd_time;
    mpmd_efficiency = Numeric.Stats.efficiency ~serial ~parallel:mpmd_time ~procs;
    spmd_efficiency = Numeric.Stats.efficiency ~serial ~parallel:spmd_time ~procs;
    predicted;
    phi;
  }

let compare_mpmd_spmd ?(config = default_config) gt (req : request) =
  match plan ~config { req with graph = G.normalise req.graph } with
  | Result.Error e -> Result.Error e
  | Ok p ->
      let mpmd = simulate gt p in
      let spmd = simulate_spmd ~obs:config.obs gt p.graph ~procs:req.procs in
      let serial = serial_time gt p.graph in
      Ok
        (comparison_of ~procs:req.procs ~serial ~predicted:(predicted_time p)
           ~phi:(phi p) ~mpmd_time:mpmd.finish_time
           ~spmd_time:spmd.finish_time)

let compare_mpmd_spmd_exn ?config gt params g ~procs =
  match compare_mpmd_spmd ?config gt (request params g ~procs) with
  | Ok c -> c
  | Result.Error e -> raise (Error e)
