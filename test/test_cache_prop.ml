(* Properties of the plan caches (ISSUE 6 satellite):

   - warm-serving soundness: planning a perturbed-constant variant of a
     cached shape (a warm-start shape hit) never yields a Phi worse
     than the cold solve of the same problem beyond a 1e-6 relative
     guard band;
   - key soundness: structurally distinct random MDGs never collide on
     [Mdg.Graph.structural_hash];
   - procs-aware warm starts (ISSUE 7): a known shape at a new machine
     size is seeded from the nearest-procs optimum, rescaled, and the
     result stays within the warm-serving guard band;
   - the [Core.Lru] recency/eviction contract behind both caches.

   Random graphs come from the shared Generators module and shrink
   toward fewer layers / smaller width / smaller seeds. *)

module G = Mdg.Graph
module P = Core.Pipeline

let base_params = Generators.synth_params
let perturbed = Generators.perturbed

(* A layered case paired with a transfer-constant scale drawn from a
   small menu; shrinking reduces the graph and leaves the scale
   alone (the scale is not what makes a counterexample large). *)
let scaled_case =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 10_000 in
      let* layers = int_range 1 3 in
      let* width = int_range 1 3 in
      let* scale = oneofl [ 0.9; 0.95; 1.05; 1.1 ] in
      return ({ Generators.seed; layers; width }, scale))
  in
  let print (c, scale) =
    Printf.sprintf "%s, scale=%g" (Generators.layered_print c) scale
  in
  let shrink (c, scale) yield =
    Generators.layered_shrink c (fun c -> yield (c, scale))
  in
  QCheck.make ~print ~shrink gen

let plan_phi ?config req =
  match P.plan ?config req with
  | Ok p -> p
  | Error e -> QCheck.Test.fail_reportf "plan failed: %s" (P.error_to_string e)

(* Cold solve vs. the warm-start shape-hit path on the same perturbed
   problem.  The warm path may legitimately find a *better* point (it
   starts at a near-optimum); it must never be worse than the cold
   solve beyond the guard band. *)
let prop_warm_hit_phi_sound =
  QCheck.Test.make ~name:"warm shape hit: Phi within 1e-6 of cold solve"
    ~count:(Generators.count 15) scaled_case
    (fun (case, scale) ->
      let g = Generators.mdg_of_layered case in
      let seed = case.Generators.seed in
      let params = base_params () in
      let params' = perturbed ~scale params in
      let procs = 16 in
      let cold = plan_phi (P.request params' g ~procs) in
      let cache = Core.Plan_cache.create () in
      let config = P.(default_config |> with_cache cache) in
      (* Seed the cache with the base-constant optimum... *)
      ignore (plan_phi ~config (P.request params g ~procs));
      (* ...then plan the perturbed variant through it. *)
      let warm = plan_phi ~config (P.request params' g ~procs) in
      if warm.cache.warm <> P.Shape_hit then
        QCheck.Test.fail_reportf "expected a shape hit, got %s"
          (match warm.cache.warm with
          | P.Hit -> "exact hit"
          | P.Miss -> "miss"
          | P.Off -> "off"
          | P.Shape_hit -> "shape hit");
      let phi_cold = P.phi cold and phi_warm = P.phi warm in
      if phi_warm > phi_cold +. (1e-6 *. (1.0 +. Float.abs phi_cold)) then
        QCheck.Test.fail_reportf
          "warm Phi %.12g worse than cold Phi %.12g (seed %d, scale %g)"
          phi_warm phi_cold seed scale;
      true)

(* An exact-key hit returns the stored result: Phi must be identical
   bit-for-bit to the first solve's. *)
let prop_exact_hit_phi_identical =
  QCheck.Test.make ~name:"warm exact hit: Phi identical to first solve"
    ~count:(Generators.count 15)
    (Generators.layered ~max_layers:3 ~max_width:3 ())
    (fun case ->
      let g = Generators.mdg_of_layered case in
      let params = base_params () in
      let cache = Core.Plan_cache.create () in
      let config = P.(default_config |> with_cache cache) in
      let first = plan_phi ~config (P.request params g ~procs:16) in
      let again = plan_phi ~config (P.request params g ~procs:16) in
      again.cache.warm = P.Hit
      && again.cache.solve_skipped
      && P.phi again = P.phi first)

(* A known shape requested at a new machine size: the cache must
   answer with a rescaled nearest-procs seed (a procs hit, surfaced as
   a shape hit by the pipeline), and the planned Phi must stay within
   the warm-serving guard band of the cold solve at that size. *)
let prop_procs_hit_phi_sound =
  QCheck.Test.make ~name:"warm procs hit: rescaled seed, Phi within 1e-6"
    ~count:(Generators.count 10)
    (Generators.layered ~max_layers:3 ~max_width:3 ())
    (fun case ->
      let g = Generators.mdg_of_layered case in
      let seed = case.Generators.seed in
      let params = base_params () in
      let cold = plan_phi (P.request params g ~procs:32) in
      let cache = Core.Plan_cache.create () in
      let config = P.(default_config |> with_cache cache) in
      ignore (plan_phi ~config (P.request params g ~procs:16));
      let warm = plan_phi ~config (P.request params g ~procs:32) in
      let stats = Core.Plan_cache.stats cache in
      if stats.warm_procs_hits <> 1 then
        QCheck.Test.fail_reportf "expected 1 procs hit, stats say %d"
          stats.warm_procs_hits;
      if warm.cache.warm <> P.Shape_hit then
        QCheck.Test.fail_reportf "expected the procs seed to surface as a \
                                  shape hit";
      let phi_cold = P.phi cold and phi_warm = P.phi warm in
      if phi_warm > phi_cold +. (1e-6 *. (1.0 +. Float.abs phi_cold)) then
        QCheck.Test.fail_reportf
          "procs-warm Phi %.12g worse than cold Phi %.12g (seed %d)" phi_warm
          phi_cold seed;
      true)

(* The LRU under the caches: a touched entry survives an insertion
   past the capacity, the least recently used entry does not (a FIFO
   would evict the touched one). *)
let test_lru_eviction_order () =
  let l = Core.Lru.create 3 in
  List.iter (fun k -> ignore (Core.Lru.set l k (10 * k))) [ 1; 2; 3 ];
  (* Touch 1: recency now 1, 3, 2. *)
  Alcotest.(check (option int)) "find touches" (Some 10) (Core.Lru.find l 1);
  (* peek must not touch: 2 stays least recent. *)
  Alcotest.(check (option int)) "peek" (Some 20) (Core.Lru.peek l 2);
  let evicted = Core.Lru.set l 4 40 in
  Alcotest.(check (option (pair int int))) "evicts the LRU entry (2)"
    (Some (2, 20)) evicted;
  Alcotest.(check (option int)) "touched entry survives" (Some 10)
    (Core.Lru.peek l 1);
  Alcotest.(check (list (pair int int))) "recency order"
    [ (4, 40); (1, 10); (3, 30) ]
    (Core.Lru.to_list l);
  (* Replacing a binding refreshes its recency. *)
  ignore (Core.Lru.set l 3 33);
  let evicted = Core.Lru.set l 5 50 in
  Alcotest.(check (option (pair int int))) "replace refreshed 3, so 1 goes"
    (Some (1, 10)) evicted;
  Alcotest.(check int) "length stays at capacity" 3 (Core.Lru.length l)

(* The shape-seed table is bounded like the other two caches (the .mli
   promises every entry count is): shapes beyond [max_shapes] evict the
   least recently stored one, and one shape holds at most a handful of
   machine sizes — probing more [procs] values than that cap must
   answer the overflow via nearest-procs rescaling, not by growing the
   table. *)
let fake_result n value =
  {
    Core.Allocation.alloc = Array.make n 1.0;
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

let shape_key ?(fingerprint = 0L) ~h ~procs () =
  {
    Core.Plan_cache.graph_hash = Int64.of_int h;
    fingerprint;
    procs;
  }

let test_warm_shape_bounded () =
  let cache = Core.Plan_cache.create ~max_shapes:4 () in
  let r = fake_result 3 0.5 in
  for h = 1 to 8 do
    Core.Plan_cache.store_warm cache (shape_key ~h ~procs:8 ()) r
  done;
  (* Distinct fingerprint: the exact cache cannot answer, only the
     shape table can. *)
  let probe h =
    Core.Plan_cache.warm cache (shape_key ~fingerprint:1L ~h ~procs:8 ())
  in
  (match probe 1 with
  | None -> ()
  | Some _ -> Alcotest.fail "shape 1 should have been evicted (capacity 4)");
  (match probe 8 with
  | Some (Core.Plan_cache.Seed _) -> ()
  | _ -> Alcotest.fail "shape 8 should still hold a seed");
  let stats = Core.Plan_cache.stats cache in
  Alcotest.(check int) "evicted shape is a warm miss" 1 stats.warm_misses;
  Alcotest.(check int) "resident shape is a shape hit" 1 stats.warm_shape_hits

let test_warm_shape_procs_capped () =
  let cache = Core.Plan_cache.create () in
  let r = fake_result 3 0.5 in
  (* 12 machine sizes for one shape: more than the per-shape cap (8),
     so at least 4 of the probes below must be answered by rescaling
     from a neighbouring size rather than exactly. *)
  let sizes = List.init 12 (fun i -> 1 lsl i) in
  List.iter
    (fun procs -> Core.Plan_cache.store_warm cache (shape_key ~h:7 ~procs ()) r)
    sizes;
  List.iter
    (fun procs ->
      match
        Core.Plan_cache.warm cache (shape_key ~fingerprint:1L ~h:7 ~procs ())
      with
      | Some (Core.Plan_cache.Seed _) -> ()
      | _ ->
          Alcotest.failf "procs %d should seed (exactly or rescaled)" procs)
    sizes;
  let stats = Core.Plan_cache.stats cache in
  Alcotest.(check int) "every probe seeded" 12
    (stats.warm_shape_hits + stats.warm_procs_hits);
  Alcotest.(check bool) "per-shape procs entries capped at 8" true
    (stats.warm_shape_hits <= 8);
  Alcotest.(check int) "no warm misses" 0 stats.warm_misses

let signature = Generators.signature

let test_no_hash_collisions () =
  let shapes seed =
    (* Vary the shape with the seed so the population is not one
       layered family. *)
    {
      Kernels.Workloads.default_shape with
      layers = 1 + (seed mod 5);
      width = 1 + (seed mod 4);
      edge_density = 0.2 +. (0.15 *. float_of_int (seed mod 5));
    }
  in
  let seen = Hashtbl.create (2 * 10_000) in
  let collisions = ref 0 in
  for seed = 0 to 9_999 do
    let g = Kernels.Workloads.random_layered ~seed (shapes seed) in
    let h = G.structural_hash g in
    let s = signature g in
    match Hashtbl.find_opt seen h with
    | None -> Hashtbl.add seen h s
    | Some s' -> if not (String.equal s s') then incr collisions
  done;
  Alcotest.(check int) "structural_hash collisions in 10k random MDGs" 0
    !collisions

let suite =
  [
    QCheck_alcotest.to_alcotest prop_warm_hit_phi_sound;
    QCheck_alcotest.to_alcotest prop_exact_hit_phi_identical;
    QCheck_alcotest.to_alcotest prop_procs_hit_phi_sound;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "warm shape table bounded" `Quick
      test_warm_shape_bounded;
    Alcotest.test_case "per-shape procs entries capped" `Quick
      test_warm_shape_procs_capped;
    Alcotest.test_case "no structural_hash collisions (10k graphs)" `Slow
      test_no_hash_collisions;
  ]
