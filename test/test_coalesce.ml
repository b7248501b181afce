(* Singleflight coalescing (ISSUE 10 tentpole):

   - rendezvous: K concurrent identical misses enter the solver exactly
     once, everyone gets the leader's result (private copies);
   - leader failure: the exception is re-raised in every waiter — no
     waiter hangs — and the flight is cleaned up so a retry solves
     fresh;
   - late miss: a request that finds no flight but a stored result for
     its key is served that result without a solve;
   - pipeline level: K domains planning the same request through one
     shared cache compile exactly one tape and receive bit-identical
     plans;
   - a small QCheck property runs the pipeline race over random layered
     graphs. *)

module P = Core.Pipeline
module PC = Core.Plan_cache

let fake_result n value =
  {
    Core.Allocation.alloc = Array.make n value;
    phi = value;
    average = value;
    critical_path = value;
    solver =
      {
        Convex.Solver.x = Array.make n value;
        value;
        iterations = 1;
        stages = 1;
        converged = true;
        hvp_evals = 0;
        cg_iterations = 0;
      };
  }

let key () = Generators.cache_key ~procs:16 42

(* Leader-side rendezvous: hold the solve open until [k - 1] followers
   are blocked on the flight, so the coalescing below is deterministic
   rather than a scheduling accident.  The deadline keeps a broken
   implementation from hanging the suite — assertions then fail
   instead. *)
let await_waiters cache key ~n =
  let deadline = Unix.gettimeofday () +. 5.0 in
  while PC.waiting cache key < n && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done

let test_k_misses_one_solve () =
  let cache = PC.create () in
  let k = 4 in
  let key = key () in
  let entries = Atomic.make 0 in
  let solve () =
    Atomic.incr entries;
    await_waiters cache key ~n:(k - 1);
    fake_result 3 1.5
  in
  let doms =
    List.init k (fun _ -> Domain.spawn (fun () -> PC.coalesce cache key ~solve))
  in
  let results = List.map Domain.join doms in
  Alcotest.(check int) "exactly one solver entry" 1 (Atomic.get entries);
  let leaders =
    List.length (List.filter (fun (_, role) -> role = `Leader) results)
  in
  Alcotest.(check int) "exactly one leader" 1 leaders;
  List.iter
    (fun ((r : Core.Allocation.result), _) ->
      Alcotest.(check (float 0.0)) "shared phi" 1.5 r.phi;
      Alcotest.(check (array (float 0.0))) "shared alloc" (Array.make 3 1.5)
        r.alloc)
    results;
  (* The returned arrays are private copies: no two results alias. *)
  let allocs = List.map (fun ((r : Core.Allocation.result), _) -> r.alloc) results in
  List.iteri
    (fun i a ->
      List.iteri (fun j b -> if i < j then assert (not (a == b))) allocs)
    allocs;
  let stats = PC.stats cache in
  Alcotest.(check int) "one coalesce leader" 1 stats.coalesce_leaders;
  Alcotest.(check int) "k-1 coalesce hits" (k - 1) stats.coalesce_hits;
  Alcotest.(check int) "flight cleaned up" 0 (PC.waiting cache key)

exception Boom

let test_leader_failure_propagates () =
  let cache = PC.create () in
  let k = 4 in
  let key = key () in
  let entries = Atomic.make 0 in
  let solve () =
    Atomic.incr entries;
    await_waiters cache key ~n:(k - 1);
    raise Boom
  in
  let doms =
    List.init k (fun _ ->
        Domain.spawn (fun () ->
            match PC.coalesce cache key ~solve with
            | _ -> `Result
            | exception Boom -> `Boom
            | exception _ -> `Other))
  in
  let outcomes = List.map Domain.join doms in
  (* Every caller — the leader and all waiters — observes the typed
     failure; nobody hangs, nobody gets a stale result. *)
  List.iter
    (fun o ->
      Alcotest.(check bool) "every caller saw the leader's exception" true
        (o = `Boom))
    outcomes;
  Alcotest.(check int) "one failed solver entry" 1 (Atomic.get entries);
  Alcotest.(check int) "no waiters left behind" 0 (PC.waiting cache key);
  (* Nothing was published: the next request for the key solves
     fresh (and succeeds). *)
  let r, role = PC.coalesce cache key ~solve:(fun () -> fake_result 3 2.0) in
  Alcotest.(check bool) "retry leads a fresh flight" true (role = `Leader);
  Alcotest.(check (float 0.0)) "retry solved fresh" 2.0 r.phi

(* A request whose [warm] lookup missed just before a leader stored and
   published its result reaches [coalesce] with no flight left: it must
   get the stored result, not solve the key again. *)
let test_late_miss_served_from_store () =
  let cache = PC.create () in
  let key = key () in
  PC.store_warm cache key (fake_result 3 1.5);
  let r, role =
    PC.coalesce cache key ~solve:(fun () ->
        Alcotest.fail "a stored key was solved again")
  in
  Alcotest.(check bool) "served as a follower" true (role = `Follower);
  Alcotest.(check (float 0.0)) "stored phi" 1.5 r.phi;
  let stats = PC.stats cache in
  Alcotest.(check int) "no leader" 0 stats.coalesce_leaders;
  Alcotest.(check int) "counted as a coalesce hit" 1 stats.coalesce_hits

(* A reusable start-line: released once every party has arrived, so
   the K pipeline calls below actually race. *)
let barrier k =
  let lock = Mutex.create () and cond = Condition.create () in
  let arrived = ref 0 in
  fun () ->
    Mutex.protect lock (fun () ->
        incr arrived;
        if !arrived >= k then Condition.broadcast cond
        else while !arrived < k do Condition.wait cond lock done)

let race_plans ~k cache req =
  let config = P.(default_config |> with_cache cache) in
  let await = barrier k in
  List.init k (fun _ ->
      Domain.spawn (fun () ->
          await ();
          P.plan ~config req))
  |> List.map Domain.join

let check_one_solve_identical_plans ~k cache plans =
  let plans =
    List.map
      (function
        | Ok p -> p
        | Error e -> Alcotest.failf "plan failed: %s" (P.error_to_string e))
      plans
  in
  let stats = PC.stats cache in
  (* Followers never compile; late arrivals hit the resident tape: the
     whole race costs exactly one compile. *)
  Alcotest.(check int) "exactly one tape compile" 1 stats.tape_misses;
  (* Every request is a coalesce leader, a coalesced follower, or a
     post-publication exact warm hit — nothing solved redundantly. *)
  Alcotest.(check int) "k requests partition into lead/follow/warm-hit" k
    (stats.coalesce_leaders + stats.coalesce_hits + stats.warm_hits);
  Alcotest.(check bool) "at least one leader" true (stats.coalesce_leaders >= 1);
  let coalesced =
    List.length (List.filter (fun (p : P.plan) -> p.cache.coalesced) plans)
  in
  Alcotest.(check int) "coalesced outcomes match the counter"
    stats.coalesce_hits coalesced;
  (* Bit-identical plans: same Phi, same allocation vector. *)
  let first = List.hd plans in
  List.iter
    (fun (p : P.plan) ->
      Alcotest.(check (float 0.0)) "identical phi" (P.phi first) (P.phi p);
      Alcotest.(check (array (float 0.0)))
        "identical allocation" first.allocation.alloc p.allocation.alloc)
    plans

let test_pipeline_race () =
  let k = 4 in
  let g = Generators.mdg_of_layered { Generators.seed = 42; layers = 2; width = 2 } in
  let params = Generators.synth_params () in
  let cache = PC.create () in
  let plans = race_plans ~k cache (P.request params g ~procs:16) in
  check_one_solve_identical_plans ~k cache plans

let prop_race_one_solve =
  QCheck.Test.make
    ~name:"pipeline race: one compile, identical plans (random graphs)"
    ~count:(Generators.count 8)
    (Generators.layered ~max_layers:2 ~max_width:2 ())
    (fun case ->
      let k = 3 in
      let g = Generators.mdg_of_layered case in
      let params = Generators.synth_params () in
      let cache = PC.create () in
      let plans = race_plans ~k cache (P.request params g ~procs:8) in
      check_one_solve_identical_plans ~k cache plans;
      true)

let suite =
  [
    Alcotest.test_case "K concurrent misses, one solve" `Quick
      test_k_misses_one_solve;
    Alcotest.test_case "leader failure wakes every waiter" `Quick
      test_leader_failure_propagates;
    Alcotest.test_case "late miss served from the stored result" `Quick
      test_late_miss_served_from_store;
    Alcotest.test_case "pipeline race: one compile, identical plans" `Quick
      test_pipeline_race;
    QCheck_alcotest.to_alcotest prop_race_one_solve;
  ]
