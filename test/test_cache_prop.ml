(* Properties of the plan cache:

   - history independence: a plan served through a cache is the
     uncached plan of the same request, bit for bit, whatever the
     cache solved before, and the cache answers exactly the repeats of
     an earlier key;
   - key soundness: two crafted MDGs that share a structural hash are
     each served their own plan, planned in turn or at once, because
     keys are exact bytes; structurally distinct random MDGs never
     collide on [Mdg.Graph.structural_hash], which planbench uses to
     draw distinct shapes;
   - the result table's bound, and the [Core.Lru] recency/eviction
     contract behind it.

   Random graphs come from the shared Generators module and shrink
   toward fewer layers / smaller width / smaller seeds. *)

module G = Mdg.Graph
module P = Core.Pipeline

let base_params = Generators.synth_params
let perturbed = Generators.perturbed

let plan_phi ?config req =
  match P.plan ?config req with
  | Ok p -> p
  | Error e -> QCheck.Test.fail_reportf "plan failed: %s" (P.error_to_string e)

(* One request of a sequence: a shape from the case's pool, base or
   perturbed constants, and a machine size. *)
type step = { shape : int; scale : float option; procs : int }

(* One or two layered shapes and 4-10 requests over them, so the same
   shape recurs under other constants and machine sizes, and some keys
   repeat.  Shrinking drops requests, then shrinks the shapes. *)
let sequence_case =
  let layered = Generators.layered ~max_layers:3 ~max_width:3 () in
  let gen =
    QCheck.Gen.(
      let* shapes = array_size (int_range 1 2) (QCheck.get_gen layered) in
      let step =
        let* shape = int_bound (Array.length shapes - 1) in
        let* scale = oneofl [ None; Some 0.9; Some 1.1 ] in
        let* procs = oneofl [ 8; 16; 32 ] in
        return { shape; scale; procs }
      in
      let* steps = list_size (int_range 4 10) step in
      return (shapes, steps))
  in
  let print (shapes, steps) =
    Printf.sprintf "shapes [%s], requests [%s]"
      (String.concat "; "
         (Array.to_list (Array.map Generators.layered_print shapes)))
      (String.concat "; "
         (List.map
            (fun { shape; scale; procs } ->
              Printf.sprintf "%d/%s/p=%d" shape
                (match scale with
                | None -> "base"
                | Some s -> Printf.sprintf "x%g" s)
                procs)
            steps))
  in
  let shrink (shapes, steps) yield =
    QCheck.Shrink.list steps (fun steps -> yield (shapes, steps));
    Array.iteri
      (fun i c ->
        Generators.layered_shrink c (fun c ->
            let shapes = Array.copy shapes in
            shapes.(i) <- c;
            yield (shapes, steps)))
      shapes
  in
  QCheck.make ~print ~shrink gen

let prop_cached_plan_is_cold_plan =
  QCheck.Test.make ~name:"cached plan == uncached plan, bit for bit"
    ~count:(Generators.count 25) sequence_case
    (fun (shapes, steps) ->
      let graphs = Array.map Generators.mdg_of_layered shapes in
      let base = base_params () in
      let cache = Core.Plan_cache.create () in
      let config = P.(default_config |> with_cache cache) in
      let seen = Hashtbl.create 16 in
      let bits = Array.map Int64.bits_of_float in
      List.iteri
        (fun i { shape; scale; procs } ->
          let g = graphs.(shape) in
          let params =
            match scale with None -> base | Some scale -> perturbed ~scale base
          in
          let req = P.request params g ~procs in
          let served = plan_phi ~config req and cold = plan_phi req in
          let key =
            Core.Plan_cache.key params ~text:(Mdg.Serialize.to_string g)
              ~procs
          in
          let repeat = Hashtbl.mem seen key in
          Hashtbl.replace seen key ();
          if (served.cache.warm = P.Hit) <> repeat then
            QCheck.Test.fail_reportf "request %d: %s, but the key %s" i
              (if served.cache.warm = P.Hit then "a cache hit" else "no hit")
              (if repeat then "repeats an earlier one" else "is new");
          if
            Int64.bits_of_float (P.phi served)
            <> Int64.bits_of_float (P.phi cold)
          then
            QCheck.Test.fail_reportf
              "request %d: served Phi %.17g <> uncached Phi %.17g" i
              (P.phi served) (P.phi cold);
          if bits served.allocation.alloc <> bits cold.allocation.alloc then
            QCheck.Test.fail_reportf
              "request %d: served allocation differs from the uncached one" i;
          if served.psa.rounded_alloc <> cold.psa.rounded_alloc then
            QCheck.Test.fail_reportf
              "request %d: served rounded allocation differs from the \
               uncached one"
              i)
        steps;
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

(* The LRU under the result table: a touched entry survives an insertion
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

(* The result table is the cache's only memory bound: one store past
   [capacity] evicts the least recently stored key. *)
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

let test_exact_table_bounded () =
  let cache = Core.Plan_cache.create () in
  let r = fake_result 3 0.5 in
  let capacity = Core.Plan_cache.capacity in
  let key h = Generators.cache_key ~procs:8 h in
  for h = 0 to capacity do
    Core.Plan_cache.store_warm cache (key h) r
  done;
  Alcotest.(check int) "entries held at capacity" capacity
    (Core.Plan_cache.stats cache).warm_entries;
  Alcotest.(check bool) "first-stored key evicted" true
    (Option.is_none (Core.Plan_cache.warm cache (key 0)));
  Alcotest.(check bool) "last-stored key hits" true
    (Option.is_some (Core.Plan_cache.warm cache (key capacity)))

(* A crafted pair of graphs that share a structural hash (see
   Generators.colliding_pair) must each be served their own plan:
   Phi and allocation bit-identical to their uncached plans. *)
let check_own_plan what params g (served : P.plan) =
  let cold = P.plan_exn params g ~procs:16 in
  let bits = Array.map Int64.bits_of_float in
  Alcotest.(check int64) (what ^ ": Phi bits of its uncached plan")
    (Int64.bits_of_float (P.phi cold))
    (Int64.bits_of_float (P.phi served));
  Alcotest.(check (array int64))
    (what ^ ": allocation bits of its uncached plan")
    (bits cold.allocation.alloc) (bits served.allocation.alloc)

let test_colliding_hashes_sequential () =
  let a, b = Generators.colliding_pair () in
  Alcotest.(check int64) "the pair shares a structural hash"
    (G.structural_hash (G.normalise a))
    (G.structural_hash (G.normalise b));
  let params = Costmodel.Params.cm5 () in
  let config = P.(default_config |> with_cache (Core.Plan_cache.create ())) in
  ignore (P.plan_exn ~config params a ~procs:16 : P.plan);
  let served = P.plan_exn ~config params b ~procs:16 in
  Alcotest.(check bool) "the second graph misses" true
    (served.cache.warm = P.Miss);
  check_own_plan "second graph" params b served

(* The pair planned at once from two domains: whether the second finds
   the first's solve in flight or its stored entry, each must get its
   own plan. *)
let test_colliding_hashes_concurrent () =
  let a, b = Generators.colliding_pair () in
  let params = Costmodel.Params.cm5 () in
  let config = P.(default_config |> with_cache (Core.Plan_cache.create ())) in
  let arrived = Atomic.make 0 in
  let plan g =
    Domain.spawn (fun () ->
        Atomic.incr arrived;
        while Atomic.get arrived < 2 do Domain.cpu_relax () done;
        P.plan_exn ~config params g ~procs:16)
  in
  let served = List.map Domain.join (List.map plan [ a; b ]) in
  List.iter2
    (fun (what, g) p -> check_own_plan what params g p)
    [ ("first graph", a); ("second graph", b) ]
    served

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

(* One MDG planned under three constant sets is three entries that
   share one physical text, though each request serialised its graph
   afresh. *)
let test_one_text_per_mdg () =
  let cache = Core.Plan_cache.create () in
  let config = P.(default_config |> with_cache cache) in
  let g = Generators.mdg_of_seed 7 in
  let base = base_params () in
  List.iter
    (fun params -> ignore (plan_phi ~config (P.request params g ~procs:16)))
    [ base; perturbed ~scale:0.9 base; perturbed ~scale:1.1 base ];
  match Core.Plan_cache.texts cache with
  | [ a; b; c ] ->
      Alcotest.(check string) "the graph's text" (Mdg.Serialize.to_string g) a;
      Alcotest.(check bool) "one physical text" true (a == b && b == c)
  | texts -> Alcotest.failf "%d entries, expected 3" (List.length texts)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_cached_plan_is_cold_plan;
    QCheck_alcotest.to_alcotest prop_exact_hit_phi_identical;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "exact table bounded at capacity" `Quick
      test_exact_table_bounded;
    Alcotest.test_case "colliding structural hashes, sequential: own plans"
      `Quick test_colliding_hashes_sequential;
    Alcotest.test_case "colliding structural hashes, concurrent: own plans"
      `Quick test_colliding_hashes_concurrent;
    Alcotest.test_case "no structural_hash collisions (10k graphs)" `Slow
      test_no_hash_collisions;
    Alcotest.test_case "one MDG under three constant sets: one text" `Quick
      test_one_text_per_mdg;
  ]
