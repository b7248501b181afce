module G = Mdg.Graph

type config = {
  psa_options : Psa.options;
  obs : Obs.t;
  cache : Plan_cache.t option;
}

let default_config =
  { psa_options = Psa.default_options; obs = Obs.null; cache = None }

let with_psa_options psa_options config = { config with psa_options }

let with_obs obs config = { config with obs }

let with_cache cache config = { config with cache = Some cache }

type request = {
  params : Costmodel.Params.t;
  graph : Mdg.Graph.t;
  procs : int;
  text : string option;
}

let request ?text params graph ~procs = { params; graph; procs; text }

type error =
  | Invalid_procs of int
  | Missing_calibration of Mdg.Graph.kernel
  | Invalid_request of string

let error_to_string = function
  | Invalid_procs p -> Printf.sprintf "invalid processor count %d (need >= 1)" p
  | Missing_calibration k ->
      Format.asprintf "no cost-model calibration for kernel %a" G.pp_kernel k
  | Invalid_request msg -> Printf.sprintf "invalid request: %s" msg

let error_kind = function
  | Invalid_procs _ -> "invalid_procs"
  | Missing_calibration _ -> "missing_calibration"
  | Invalid_request _ -> "invalid_request"

exception Error of error

type cache_use = Hit | Shape_hit | Miss | Off

type cache_outcome = {
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

let no_cache = { warm = Off; solve_skipped = false; coalesced = false }

(* Allocation/PSA validation failures surface as [Invalid_argument];
   uncalibrated kernels as [Not_found] from the parameter table.  The
   checks below turn the ones a *well-typed* caller can still hit into
   typed errors up front; anything residual (an impossible internal
   state) stays an exception. *)
let validate ({ params; graph; procs; _ } : request) =
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
    | None -> Result.Ok g

let emit_cache_counter obs outcome =
  if Obs.enabled obs then
    Obs.counter obs "pipeline.cache"
      [
        ("warm_hit", if outcome.warm = Hit then 1.0 else 0.0);
        ("solve_skipped", if outcome.solve_skipped then 1.0 else 0.0);
        ("coalesced", if outcome.coalesced then 1.0 else 0.0);
      ]

let schedule (config : config) (req : request) g (allocation : Allocation.result) =
  let obs = config.obs in
  match
    Obs.span obs ~cat:"pipeline" "pipeline.schedule" (fun () ->
        Psa.schedule ~options:config.psa_options ~obs req.params g
          ~procs:req.procs ~alloc:allocation.alloc)
  with
  | psa -> Ok psa
  | exception Invalid_argument msg -> Result.Error (Invalid_request msg)

let cache_key (req : request) =
  let text =
    match req.text with
    | Some text -> text
    | None -> Mdg.Serialize.to_string req.graph
  in
  Plan_cache.key req.params ~text ~procs:req.procs

let hit = { warm = Hit; solve_skipped = true; coalesced = false }

(* Solve the allocation through the configured cache.  An exact
   (text, constants, procs) duplicate is answered with the cached
   result outright — the solver is deterministic, so re-solving the
   identical problem could only reproduce it.  Anything else goes
   through the in-flight table, so concurrent identical misses share
   one solve.  Its leader runs the cold solve an uncached plan runs,
   then the PSA, and stores both before the flight ends; the PSA's
   result comes back with the allocation, so the leader's plan does
   not schedule twice. *)
let solve_cached config cache (req : request) g =
  let key = cache_key req in
  let obs = config.obs in
  let ((_, outcome, _) as solved) =
    match Plan_cache.warm cache key with
    | Some allocation -> (allocation, hit, None)
    | None -> (
        let scheduled = ref None in
        let leader () =
          let allocation =
            Allocation.solve ~obs req.params g ~procs:req.procs
          in
          let psa = schedule config req g allocation in
          scheduled := Some psa;
          let reply =
            Result.to_option psa
            |> Option.map (fun (psa : Psa.result) ->
                   {
                     Plan_cache.psa_options = config.psa_options;
                     t_psa = psa.t_psa;
                     makespan = Schedule.makespan psa.schedule;
                     pb = psa.pb;
                     rounded_alloc = psa.rounded_alloc;
                   })
          in
          Plan_cache.store_warm cache key ?reply allocation;
          allocation
        in
        match Plan_cache.coalesce cache key ~solve:leader with
        | allocation, `Leader ->
            ( allocation,
              { warm = Miss; solve_skipped = false; coalesced = false },
              !scheduled )
        | allocation, `Follower ->
            ( allocation,
              { warm = Hit; solve_skipped = true; coalesced = true },
              None ))
  in
  emit_cache_counter obs outcome;
  solved

let exact_hit (config : config) key =
  match config.cache with
  | None -> None
  | Some cache ->
      let found =
        Plan_cache.warm_reply cache key ~psa_options:config.psa_options
      in
      if Option.is_some found then emit_cache_counter config.obs hit;
      found

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
                ( Allocation.solve ~obs req.params g ~procs:req.procs,
                  no_cache,
                  None ))
      with
      | exception Invalid_argument msg -> Result.Error (Invalid_request msg)
      | allocation, cache, scheduled -> (
          let psa =
            match scheduled with
            | Some psa -> psa
            | None -> schedule config req g allocation
          in
          match psa with
          | Error e -> Result.Error e
          | Ok psa ->
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

let plan_exn ?config params g ~procs =
  match plan ?config (request params g ~procs) with
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
