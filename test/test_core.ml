(* Tests for the core library: schedules, theorem bounds, the convex
   allocation, the PSA, code generation and the pipeline. *)

module G = Mdg.Graph
module P = Costmodel.Params
module W = Costmodel.Weights
open Core

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let synth_params () = P.make ~transfer:P.cm5_transfer

(* A small normalised graph with real transfer costs. *)
let transfer_graph () =
  let b = G.create_builder () in
  let n0 = G.add_node b ~label:"produce" ~kernel:(Synthetic { alpha = 0.05; tau = 0.4 }) in
  let n1 = G.add_node b ~label:"left" ~kernel:(Synthetic { alpha = 0.1; tau = 0.8 }) in
  let n2 = G.add_node b ~label:"right" ~kernel:(Synthetic { alpha = 0.1; tau = 0.8 }) in
  let n3 = G.add_node b ~label:"consume" ~kernel:(Synthetic { alpha = 0.05; tau = 0.2 }) in
  let bytes = 65536.0 in
  G.add_edge b ~src:n0 ~dst:n1 ~bytes ~kind:Oned;
  G.add_edge b ~src:n0 ~dst:n2 ~bytes ~kind:Twod;
  G.add_edge b ~src:n1 ~dst:n3 ~bytes ~kind:Oned;
  G.add_edge b ~src:n2 ~dst:n3 ~bytes ~kind:Oned;
  G.normalise (G.build b)

(* ------------------------------------------------------------------ *)
(* Schedule                                                            *)
(* ------------------------------------------------------------------ *)

let test_schedule_make_and_accessors () =
  let s =
    Schedule.make ~machine_procs:4
      [
        { Schedule.node = 0; procs = [| 0; 1 |]; start = 0.0; finish = 1.0 };
        { Schedule.node = 1; procs = [| 2; 3 |]; start = 0.5; finish = 2.0 };
      ]
  in
  check_close "makespan" 2.0 (Schedule.makespan s);
  Alcotest.(check int) "alloc" 2 (Schedule.allocation s 0);
  check_close "busy area" 5.0 (Schedule.busy_area s);
  Alcotest.(check int) "entries" 2 (Schedule.num_entries s)

let test_schedule_rejects_bad_entries () =
  Alcotest.check_raises "dup node"
    (Invalid_argument "Schedule.make: node 0 scheduled twice") (fun () ->
      ignore
        (Schedule.make ~machine_procs:2
           [
             { Schedule.node = 0; procs = [| 0 |]; start = 0.0; finish = 1.0 };
             { Schedule.node = 0; procs = [| 1 |]; start = 0.0; finish = 1.0 };
           ]));
  Alcotest.check_raises "outside machine"
    (Invalid_argument "Schedule.make: node 0 uses processor 5 outside machine")
    (fun () ->
      ignore
        (Schedule.make ~machine_procs:2
           [ { Schedule.node = 0; procs = [| 5 |]; start = 0.0; finish = 1.0 } ]));
  Alcotest.check_raises "bad interval"
    (Invalid_argument "Schedule.make: node 0 has a bad interval") (fun () ->
      ignore
        (Schedule.make ~machine_procs:2
           [ { Schedule.node = 0; procs = [| 0 |]; start = 2.0; finish = 1.0 } ]));
  let procs_error name ~machine_procs procs msg =
    Alcotest.check_raises name (Invalid_argument ("Schedule.make: node 0 " ^ msg))
      (fun () ->
        ignore
          (Schedule.make ~machine_procs
             [ { Schedule.node = 0; procs; start = 0.0; finish = 1.0 } ]))
  in
  procs_error "not sorted" ~machine_procs:4 [| 1; 0 |] "processors not sorted";
  procs_error "listed twice" ~machine_procs:4 [| 0; 1; 1 |]
    "lists processor 1 twice";
  (* One entry breaking several rules: a decrease anywhere wins, then
     the first offending id in array order, and at one id "outside"
     wins over "twice". *)
  procs_error "not sorted beats outside" ~machine_procs:2 [| 5; 0 |]
    "processors not sorted";
  procs_error "not sorted beats an earlier repeat" ~machine_procs:2 [| 1; 1; 0 |]
    "processors not sorted";
  procs_error "first offending id wins" ~machine_procs:2 [| 0; 0; 7 |]
    "lists processor 0 twice";
  procs_error "outside beats twice at one id" ~machine_procs:2 [| 7; 7 |]
    "uses processor 7 outside machine"

let test_schedule_validate_catches_overlap () =
  let g = Kernels.Workloads.fully_independent ~count:2 ~tau:1.0 ~alpha:0.0 in
  let params = synth_params () in
  (* Both real nodes on the same processor at the same time. *)
  let w i = W.node_weight params g ~alloc:(fun _ -> 1.0) i in
  let entries =
    List.init (G.num_nodes g) (fun i ->
        { Schedule.node = i; procs = [| 0 |]; start = 0.0; finish = w i })
  in
  let s = Schedule.make ~machine_procs:2 entries in
  match Schedule.validate params g s with
  | Ok () -> Alcotest.fail "expected overlap error"
  | Error msgs ->
      Alcotest.(check bool) "mentions overlap" true
        (List.exists
           (fun m ->
             String.length m >= 5
             && String.sub m 0 5 = "nodes"
             (* "nodes %d and %d overlap..." *))
           msgs)

(* ------------------------------------------------------------------ *)
(* Bounds                                                              *)
(* ------------------------------------------------------------------ *)

let test_bounds_factors () =
  check_close "theorem1 p=64 pb=32" (1.0 +. (64.0 /. 33.0))
    (Bounds.theorem1_factor ~procs:64 ~pb:32);
  check_close "theorem2 p=64 pb=32" (2.25 *. 4.0)
    (Bounds.theorem2_factor ~procs:64 ~pb:32);
  check_close "theorem3 = product"
    (Bounds.theorem1_factor ~procs:64 ~pb:32 *. Bounds.theorem2_factor ~procs:64 ~pb:32)
    (Bounds.theorem3_factor ~procs:64 ~pb:32)

let test_bounds_optimal_pb () =
  (* Corollary 1 by brute force over all powers of two. *)
  List.iter
    (fun procs ->
      let best = Bounds.optimal_pb ~procs in
      List.iter
        (fun pb ->
          Alcotest.(check bool)
            (Printf.sprintf "p=%d pb=%d" procs pb)
            true
            (Bounds.theorem3_factor ~procs ~pb
            >= Bounds.theorem3_factor ~procs ~pb:best -. 1e-12))
        (Numeric.Pow2.pow2_range procs))
    [ 1; 2; 4; 8; 16; 32; 64; 100 ]

let test_bounds_validation () =
  Alcotest.check_raises "pb > procs"
    (Invalid_argument "Bounds: pb outside [1, procs]") (fun () ->
      ignore (Bounds.theorem1_factor ~procs:4 ~pb:8))

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

let test_allocation_requires_normalised () =
  let b = G.create_builder () in
  ignore (G.add_node b ~label:"a" ~kernel:(Synthetic { alpha = 0.1; tau = 1.0 }));
  ignore (G.add_node b ~label:"b" ~kernel:(Synthetic { alpha = 0.1; tau = 1.0 }));
  let g = G.build b in
  Alcotest.check_raises "unnormalised"
    (Invalid_argument "Allocation: graph must be normalised (unique START/STOP)")
    (fun () -> ignore (Allocation.solve (synth_params ()) g ~procs:4))

(* Allocation.solve builds its own finite box, so only the options and
   x0 can reach the solver's checks; each used to hang the anneal. *)
let test_allocation_rejects_solver_inputs () =
  let g = transfer_graph () in
  let n = G.num_nodes g in
  let solve ?options ?x0 () =
    ignore (Allocation.solve ?options ?x0 (synth_params ()) g ~procs:8)
  in
  Alcotest.check_raises "NaN mu_init"
    (Invalid_argument
       "Solver.solve_compiled: options.mu_init must be positive and finite")
    (solve
       ~options:{ Convex.Solver.default_options with mu_init = Float.nan });
  Alcotest.check_raises "NaN x0"
    (Invalid_argument "Solver.solve_compiled: x0 has a NaN coordinate")
    (solve ~x0:(Array.make n Float.nan))

let test_allocation_within_box () =
  let g = transfer_graph () in
  let r = Allocation.solve (synth_params ()) g ~procs:8 in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "in [1,8]" true (p >= 1.0 -. 1e-9 && p <= 8.0 +. 1e-9))
    r.alloc;
  Alcotest.(check bool) "solver converged" true r.solver.converged

let test_allocation_phi_is_max_avg_cp () =
  let g = transfer_graph () in
  let r = Allocation.solve (synth_params ()) g ~procs:8 in
  check_close ~eps:1e-9 "phi = max(avg, cp)" (Float.max r.average r.critical_path) r.phi

let test_allocation_consistent_with_weights () =
  (* The expression-based objective evaluated at an allocation matches
     the float-based Weights computation (t_n = 0 so the 1D network
     surrogate is exact). *)
  let g = transfer_graph () in
  let params = synth_params () in
  let alloc = [| 2.0; 4.0; 3.0; 2.0; 1.0; 1.0 |] in
  let alloc = Array.sub alloc 0 (G.num_nodes g) in
  let from_expr = Allocation.evaluate params g ~procs:8 ~alloc in
  let from_weights = W.lower_bound params g ~alloc:(fun i -> alloc.(i)) ~procs:8 in
  check_close ~eps:1e-9 "expr vs weights" from_weights from_expr

let test_allocation_symmetric_branches () =
  (* Identical parallel branches should receive near-identical
     allocations (unique convex optimum). *)
  let g = Kernels.Workloads.fork_join ~branches:2 ~tau:1.0 ~alpha:0.1 ~bytes:8192.0 in
  let r = Allocation.solve (synth_params ()) g ~procs:8 in
  (* Branch nodes are ids 2 and 3 (fork=0, join=1 built first). *)
  let b1, b2 = (r.alloc.(2), r.alloc.(3)) in
  Alcotest.(check bool)
    (Printf.sprintf "symmetric (%.3f vs %.3f)" b1 b2)
    true
    (Float.abs (b1 -. b2) < 0.05 *. Float.max b1 b2)

let test_allocation_example_phi_below_hand_schedules () =
  (* Phi lower-bounds both hand schedules from the paper's example. *)
  let g = Kernels.Example_mdg.graph () in
  let r = Allocation.solve (synth_params ()) g ~procs:4 in
  Alcotest.(check bool) "phi <= naive" true
    (r.phi <= Kernels.Example_mdg.naive_finish_time ~procs:4 +. 1e-6);
  Alcotest.(check bool) "phi <= mixed" true
    (r.phi <= Kernels.Example_mdg.mixed_finish_time ~procs:4 +. 1e-6)

let prop_allocation_globally_optimal =
  (* No random feasible allocation evaluates below the solver's Phi. *)
  QCheck.Test.make ~name:"Phi <= objective at random allocations" ~count:20
    QCheck.(pair (int_range 0 500) (list_of_size (Gen.return 8) (float_range 0.0 1.0)))
    (fun (seed, raws) ->
      let shape =
        { Kernels.Workloads.default_shape with layers = 3; width = 3 }
      in
      let g = Kernels.Workloads.random_layered ~seed shape in
      let procs = 16 in
      let params = synth_params () in
      let r = Allocation.solve params g ~procs in
      let n = G.num_nodes g in
      let alloc =
        Array.init n (fun i ->
            let raw = List.nth raws (i mod List.length raws) in
            1.0 +. (raw *. float_of_int (procs - 1)))
      in
      r.phi <= Allocation.evaluate params g ~procs ~alloc +. (0.01 *. r.phi))

(* ------------------------------------------------------------------ *)
(* PSA                                                                 *)
(* ------------------------------------------------------------------ *)

let test_psa_rounding_modes () =
  let alloc = [| 1.0; 2.9; 3.0; 5.9; 47.0 |] in
  Alcotest.(check (array int)) "nearest" [| 1; 2; 4; 4; 32 |]
    (Psa.round_allocation ~rounding:Psa.Nearest ~procs:64 alloc);
  Alcotest.(check (array int)) "floor" [| 1; 2; 2; 4; 32 |]
    (Psa.round_allocation ~rounding:Psa.Floor ~procs:64 alloc);
  Alcotest.(check (array int)) "ceil" [| 1; 4; 4; 8; 64 |]
    (Psa.round_allocation ~rounding:Psa.Ceil ~procs:64 alloc)

let test_psa_rounding_caps_at_machine () =
  let r = Psa.round_allocation ~rounding:Psa.Nearest ~procs:6 [| 5.9 |] in
  (* floor_pow2 6 = 4. *)
  Alcotest.(check (array int)) "capped" [| 4 |] r

let test_psa_bound () =
  Alcotest.(check (array int)) "bounded" [| 1; 4; 4 |]
    (Psa.apply_bound ~pb:4 [| 1; 4; 16 |]);
  Alcotest.check_raises "non-pow2 PB"
    (Invalid_argument "Psa.apply_bound: PB must be a power of two") (fun () ->
      ignore (Psa.apply_bound ~pb:6 [| 1 |]))

let run_psa ?options g procs =
  let params = synth_params () in
  let r = Allocation.solve params g ~procs in
  (params, r, Psa.schedule ?options params g ~procs ~alloc:r.alloc)

let test_psa_schedule_is_valid () =
  let g = transfer_graph () in
  let params, _, psa = run_psa g 8 in
  (match Schedule.validate params g psa.schedule with
  | Ok () -> ()
  | Error msgs -> Alcotest.fail (String.concat "; " msgs));
  check_close "t_psa = makespan of STOP"
    (Schedule.entry psa.schedule (G.stop_node g)).finish psa.t_psa

let test_psa_respects_pb () =
  let g = transfer_graph () in
  let _, _, psa =
    run_psa ~options:{ Psa.default_options with pb = Psa.Fixed 2 } g 8
  in
  Array.iter
    (fun a -> Alcotest.(check bool) "<= PB" true (a <= 2))
    psa.rounded_alloc

let test_psa_auto_pb_matches_corollary () =
  let g = transfer_graph () in
  let _, _, psa = run_psa g 8 in
  Alcotest.(check int) "corollary PB" (Bounds.optimal_pb ~procs:8) psa.pb

let test_psa_lower_bounds_hold () =
  (* T_psa >= critical path and >= average at the rounded allocation. *)
  let g = transfer_graph () in
  let params, _, psa = run_psa g 8 in
  let alloc i = float_of_int psa.rounded_alloc.(i) in
  let cp = W.critical_path_time params g ~alloc in
  let avg = W.average_finish_time params g ~alloc ~procs:8 in
  Alcotest.(check bool) "t_psa >= C_PB" true (psa.t_psa >= cp -. 1e-9);
  Alcotest.(check bool) "t_psa >= A_PB" true (psa.t_psa >= avg -. 1e-9)

let test_psa_fifo_ablation_no_better () =
  (* FIFO priority is a valid schedule too, and lowest-EST should not
     be (meaningfully) worse on the fork/join family. *)
  let g = Kernels.Workloads.fork_join ~branches:6 ~tau:0.5 ~alpha:0.1 ~bytes:4096.0 in
  let _, _, psa_est = run_psa g 8 in
  let _, _, psa_fifo =
    run_psa ~options:{ Psa.default_options with priority = Psa.Fifo } g 8
  in
  Alcotest.(check bool) "EST <= FIFO * 1.5" true
    (psa_est.t_psa <= psa_fifo.t_psa *. 1.5)

(* Reference list scheduler: the original list-based algorithm, which
   sorts every processor by (avail, id) for each node and keeps the
   first k.  The library keeps an (avail, id)-ordered array across
   nodes instead; schedules must be identical bit for bit (same
   processor sets, same start and finish times). *)
let reference_list_schedule ~priority params g ~procs ~rounded =
  let module Ready = Set.Make (struct
    type t = float * int * int

    let compare = compare
  end) in
  let n = G.num_nodes g in
  let allocf i = float_of_int rounded.(i) in
  let node_weight i = W.node_weight params g ~alloc:allocf i in
  let edge_weight e = W.edge_weight params ~alloc:allocf e in
  let avail = Array.make procs 0.0 in
  let finish = Array.make n 0.0 in
  let remaining_preds =
    Array.init n (fun i -> List.length (G.preds g i))
  in
  let est = Array.make n 0.0 in
  let ready = ref Ready.empty in
  let seq = ref 0 in
  let push node =
    let key =
      match priority with
      | Psa.Lowest_est -> est.(node)
      | Psa.Fifo -> float_of_int !seq
    in
    ready := Ready.add (key, !seq, node) !ready;
    incr seq
  in
  push (G.start_node g);
  let entries = ref [] in
  let continue = ref true in
  while !continue do
    match Ready.min_elt_opt !ready with
    | None -> continue := false
    | Some ((_, _, node) as elt) ->
        ready := Ready.remove elt !ready;
        let k = rounded.(node) in
        let by_avail =
          List.init procs (fun p -> (avail.(p), p)) |> List.sort compare
        in
        let chosen =
          List.filteri (fun idx _ -> idx < k) by_avail
          |> List.map snd |> List.sort Int.compare |> Array.of_list
        in
        let pst =
          Array.fold_left (fun acc p -> Float.max acc avail.(p)) 0.0 chosen
        in
        let start = Float.max est.(node) pst in
        let fin = start +. node_weight node in
        Array.iter (fun p -> avail.(p) <- fin) chosen;
        finish.(node) <- fin;
        entries :=
          { Schedule.node; procs = chosen; start; finish = fin } :: !entries;
        List.iter
          (fun (e : G.edge) ->
            remaining_preds.(e.dst) <- remaining_preds.(e.dst) - 1;
            est.(e.dst) <-
              Float.max est.(e.dst) (finish.(e.src) +. edge_weight e);
            if remaining_preds.(e.dst) = 0 then push e.dst)
          (G.succs g node)
  done;
  Schedule.make ~machine_procs:procs (List.rev !entries)

(* The whole PSA around the reference scheduler: PB choice, rounding
   and bounding as the paper states them. *)
let reference_psa ~(options : Psa.options) params g ~procs ~alloc =
  let pb =
    match options.pb with
    | Psa.Auto -> Bounds.optimal_pb ~procs
    | Psa.Fixed pb -> pb
    | Psa.Unbounded -> Numeric.Pow2.floor_pow2 procs
  in
  let rounded =
    Psa.apply_bound ~pb
      (Psa.round_allocation ~rounding:options.rounding ~procs alloc)
  in
  let schedule =
    reference_list_schedule ~priority:options.priority params g ~procs ~rounded
  in
  (schedule, rounded, pb)

(* Every PB x rounding x priority choice; [fixed_pb] must be a power
   of two <= procs. *)
let all_psa_options ~fixed_pb =
  List.concat_map
    (fun pb ->
      List.concat_map
        (fun rounding ->
          List.map
            (fun priority -> { Psa.pb; rounding; priority })
            [ Psa.Lowest_est; Psa.Fifo ])
        [ Psa.Nearest; Psa.Floor; Psa.Ceil ])
    [ Psa.Auto; Psa.Fixed fixed_pb; Psa.Unbounded ]

let options_to_string (o : Psa.options) =
  Printf.sprintf "pb=%s rounding=%s priority=%s"
    (match o.pb with
    | Psa.Auto -> "auto"
    | Psa.Fixed pb -> string_of_int pb
    | Psa.Unbounded -> "unbounded")
    (match o.rounding with
    | Psa.Nearest -> "nearest"
    | Psa.Floor -> "floor"
    | Psa.Ceil -> "ceil")
    (match o.priority with Psa.Lowest_est -> "est" | Psa.Fifo -> "fifo")

(* [None] when [Psa.schedule] equals the reference bit for bit, else
   the first difference. *)
let psa_reference_mismatch ~options params g ~procs ~alloc =
  let psa = Psa.schedule ~options params g ~procs ~alloc in
  let reference, rounded, pb = reference_psa ~options params g ~procs ~alloc in
  let bits = Int64.bits_of_float in
  let entry_mismatch (a : Schedule.entry) (b : Schedule.entry) =
    if a.node <> b.node then Some (Printf.sprintf "node %d vs %d" a.node b.node)
    else if a.procs <> b.procs then
      Some (Printf.sprintf "node %d: processor sets differ" a.node)
    else if bits a.start <> bits b.start then
      Some (Printf.sprintf "node %d: start %h vs %h" a.node a.start b.start)
    else if bits a.finish <> bits b.finish then
      Some (Printf.sprintf "node %d: finish %h vs %h" a.node a.finish b.finish)
    else None
  in
  let ref_t_psa = (Schedule.entry reference (G.stop_node g)).finish in
  if psa.pb <> pb then Some (Printf.sprintf "pb %d vs %d" psa.pb pb)
  else if psa.rounded_alloc <> rounded then Some "rounded_alloc differs"
  else if bits psa.t_psa <> bits ref_t_psa then
    Some (Printf.sprintf "t_psa %h vs %h" psa.t_psa ref_t_psa)
  else
    let a = Schedule.entries psa.schedule and b = Schedule.entries reference in
    if List.length a <> List.length b then Some "entry counts differ"
    else List.find_map Fun.id (List.map2 entry_mismatch a b)

let matrix_params kernels =
  let p = synth_params () in
  List.iter
    (fun k ->
      match k with
      | G.Matrix_multiply _ -> P.set_processing p k { alpha = 0.12; tau = 0.3 }
      | G.Matrix_add _ | G.Matrix_init _ ->
          P.set_processing p k { alpha = 0.07; tau = 0.004 }
      | G.Synthetic _ | G.Dummy -> ())
    kernels;
  p

let test_psa_selection_matches_reference () =
  let cases =
    [
      ( "complex-mm",
        G.normalise (fst (Kernels.Complex_mm.graph ~n:64 ())),
        matrix_params (Kernels.Complex_mm.kernels ~n:64) );
      ( "strassen",
        G.normalise (fst (Kernels.Strassen_mdg.graph ~n:128 ())),
        matrix_params (Kernels.Strassen_mdg.kernels ~n:128) );
      ( "random layered",
        Kernels.Workloads.random_layered ~seed:7
          { Kernels.Workloads.default_shape with layers = 4; width = 5 },
        synth_params () );
    ]
  in
  List.iter
    (fun (name, g, params) ->
      List.iter
        (fun procs ->
          let solved = (Allocation.solve params g ~procs).alloc in
          let ones = Array.make (G.num_nodes g) 1.0 in
          List.iter
            (fun (alloc_name, alloc) ->
              List.iter
                (fun options ->
                  match
                    psa_reference_mismatch ~options params g ~procs ~alloc
                  with
                  | None -> ()
                  | Some msg ->
                      Alcotest.failf "%s p=%d %s alloc, %s: %s" name procs
                        alloc_name (options_to_string options) msg)
                (all_psa_options ~fixed_pb:(Numeric.Pow2.floor_pow2 procs / 2)))
            [ ("solved", solved); ("all-ones", ones) ])
        [ 4; 16; 64 ])
    cases

(* The same comparison over random graphs, machine sizes and
   allocations.  All-ones allocations put many processors at equal
   availability, so the (avail, id) tie-break decides most
   selections. *)
type psa_case = {
  graph : [ `Layered of Generators.layered | `Workgen of Generators.workgen ];
  procs : int;
  ones : bool;
  alloc_seed : int;
  pb_exp : int;
}

let psa_case_print c =
  Printf.sprintf "%s procs=%d %s alloc_seed=%d pb_exp=%d"
    (match c.graph with
    | `Layered l -> Generators.layered_print l
    | `Workgen w -> Generators.workgen_print w)
    c.procs
    (if c.ones then "all-ones" else "uniform")
    c.alloc_seed c.pb_exp

let psa_case =
  let gen =
    QCheck.Gen.(
      let* graph =
        oneof
          [
            map (fun l -> `Layered l) (QCheck.gen (Generators.layered ()));
            map (fun w -> `Workgen w) (QCheck.gen (Generators.workgen_case ()));
          ]
      in
      let* procs = oneofl [ 1; 2; 3; 5; 8; 12; 16; 33; 64; 100; 128 ] in
      let* ones = frequencyl [ (1, true); (3, false) ] in
      let* alloc_seed = int_bound 1_000_000 in
      let* pb_exp = int_bound 7 in
      return { graph; procs; ones; alloc_seed; pb_exp })
  in
  QCheck.make ~print:psa_case_print gen

let prop_psa_matches_reference =
  QCheck.Test.make ~name:"psa: list schedule == reference, bit for bit"
    ~count:(Generators.count 200) psa_case (fun c ->
      let g =
        match c.graph with
        | `Layered l -> Generators.mdg_of_layered l
        | `Workgen w -> Generators.mdg_of_workgen w
      in
      let params = synth_params () in
      let n = G.num_nodes g in
      let rng = Random.State.make [| c.alloc_seed |] in
      let alloc =
        if c.ones then Array.make n 1.0
        else
          Array.init n (fun _ ->
              1.0 +. Random.State.float rng (float_of_int (c.procs - 1)))
      in
      let top = Numeric.Pow2.floor_pow2 c.procs in
      let fixed_pb = Int.min top (1 lsl c.pb_exp) in
      List.iter
        (fun options ->
          match psa_reference_mismatch ~options params g ~procs:c.procs ~alloc with
          | None -> ()
          | Some msg ->
              QCheck.Test.fail_reportf "%s: %s" (options_to_string options) msg)
        (all_psa_options ~fixed_pb);
      true)

(* Theorem properties on random graphs. *)
let theorem_prop ~name ~count check =
  QCheck.Test.make ~name ~count
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let shape = { Kernels.Workloads.default_shape with layers = 3; width = 4 } in
      let g = Kernels.Workloads.random_layered ~seed shape in
      let procs = 16 in
      let params = synth_params () in
      let alloc_r = Allocation.solve params g ~procs in
      let psa = Psa.schedule params g ~procs ~alloc:alloc_r.alloc in
      check params g procs alloc_r psa)

let prop_theorem1 =
  theorem_prop ~name:"Theorem 1: T_psa <= (1 + p/(p-PB+1)) * T_opt^PB" ~count:30
    (fun params g procs _alloc psa ->
      let allocf i = float_of_int psa.rounded_alloc.(i) in
      let lower = W.lower_bound params g ~alloc:allocf ~procs in
      Bounds.check_theorem1 ~t_psa:psa.t_psa ~t_opt_lower:lower ~procs
        ~pb:psa.pb)

let prop_theorem3 =
  theorem_prop ~name:"Theorem 3: T_psa <= full factor * Phi" ~count:30
    (fun _params _g procs alloc_r psa ->
      Bounds.check_theorem3 ~t_psa:psa.t_psa ~phi:alloc_r.phi ~procs ~pb:psa.pb)

let prop_theorem2 =
  (* Theorem 2: after rounding and bounding, the best achievable finish
     time (lower-bounded by max(A_PB, C_PB)) is within
     (3/2)^2 (p/PB)^2 of Phi. *)
  theorem_prop ~name:"Theorem 2: max(A_PB, C_PB) <= (3/2)^2 (p/PB)^2 Phi"
    ~count:30 (fun params g procs alloc_r psa ->
      let allocf i = float_of_int psa.rounded_alloc.(i) in
      let lower = W.lower_bound params g ~alloc:allocf ~procs in
      lower
      <= (Bounds.theorem2_factor ~procs ~pb:psa.pb *. alloc_r.phi) +. 1e-9)

let prop_rounding_factor_bounds =
  (* The rounding-off step changes no node's allocation by more than a
     factor in [2/3, 4/3] (paper Section 5, discussion before
     Theorem 2). *)
  QCheck.Test.make ~name:"rounding stays within [2/3, 4/3] per node" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range 1.0 64.0))
    (fun alloc ->
      let arr = Array.of_list alloc in
      let rounded = Psa.round_allocation ~rounding:Psa.Nearest ~procs:64 arr in
      let lo, hi = Bounds.rounding_factor_bounds in
      Array.for_all2
        (fun p r ->
          let f = float_of_int r /. p in
          f >= lo -. 1e-9 && f <= hi +. 1e-9)
        arr rounded)

let prop_schedule_always_valid =
  theorem_prop ~name:"PSA schedules always validate" ~count:30
    (fun params g _procs _alloc psa ->
      match Schedule.validate params g psa.schedule with
      | Ok () -> true
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Codegen + pipeline                                                  *)
(* ------------------------------------------------------------------ *)

let test_codegen_sim_matches_prediction_on_ideal () =
  (* On the ideal machine with CM-5 params, simulated MPMD time matches
     the model prediction closely (same cost structure; the only slack
     is message/compute overlap the model does not credit). *)
  let g = transfer_graph () in
  let params = synth_params () in
  let plan = Pipeline.plan_exn params g ~procs:8 in
  let gt = Machine.Ground_truth.ideal () in
  let sim = Pipeline.simulate gt plan in
  let rel =
    Float.abs (sim.finish_time -. Pipeline.predicted_time plan)
    /. Pipeline.predicted_time plan
  in
  Alcotest.(check bool)
    (Printf.sprintf "within 15%% (got %.1f%%)" (100.0 *. rel))
    true (rel < 0.15)

let test_codegen_mpmd_has_expected_messages () =
  let g = transfer_graph () in
  let params = synth_params () in
  let plan = Pipeline.plan_exn params g ~procs:4 in
  let gt = Machine.Ground_truth.ideal () in
  let prog = Codegen.mpmd gt plan.graph (Pipeline.schedule plan) in
  (* Every Send has a matching Recv. *)
  Alcotest.(check int) "sends = recvs"
    (List.length (Machine.Program.sends prog))
    (List.length (Machine.Program.recvs prog));
  Alcotest.(check bool) "has messages" true
    (List.length (Machine.Program.sends prog) > 0)

let test_spmd_oned_graph_no_real_comm () =
  (* A chain with only 1D transfers on identical processor sets runs
     SPMD with local copies only: simulated time ~= sum of kernel
     times. *)
  let g = Kernels.Workloads.chain ~length:4 ~tau:0.1 ~alpha:0.05 ~bytes:32768.0 in
  let gt = Machine.Ground_truth.ideal () in
  let sim = Pipeline.simulate_spmd gt g ~procs:8 in
  let expected =
    4.0 *. Machine.Ground_truth.kernel_time gt (Synthetic { alpha = 0.05; tau = 0.1 }) ~procs:8
  in
  check_close ~eps:1e-3 "spmd time" expected sim.finish_time

let test_pipeline_mpmd_beats_spmd_on_complex_mm () =
  let g, _ = Kernels.Complex_mm.graph ~n:64 () in
  let gt = Machine.Ground_truth.cm5_like () in
  let params, _, _ =
    Machine.Measure.calibrate gt
      ~procs:[ 1; 2; 4; 8; 16; 32; 64 ]
      (Kernels.Complex_mm.kernels ~n:64)
  in
  List.iter
    (fun procs ->
      let c = Pipeline.compare_mpmd_spmd_exn gt params g ~procs in
      Alcotest.(check bool)
        (Printf.sprintf "MPMD wins at p=%d" procs)
        true (c.mpmd_speedup > c.spmd_speedup))
    [ 16; 32; 64 ]

let test_pipeline_serial_time () =
  let g = Kernels.Workloads.chain ~length:3 ~tau:2.0 ~alpha:0.1 ~bytes:0.0 in
  let gt = Machine.Ground_truth.ideal () in
  check_close "serial" 6.0 (Pipeline.serial_time gt g)

let test_gantt_renders () =
  let g = transfer_graph () in
  let params = synth_params () in
  let plan = Pipeline.plan_exn params g ~procs:4 in
  let s = Gantt.of_schedule plan.graph (Pipeline.schedule plan) in
  Alcotest.(check bool) "has rows" true (String.length s > 100);
  let table =
    Gantt.allocation_table plan.graph ~real:plan.allocation.alloc
      ~rounded:plan.psa.rounded_alloc
  in
  Alcotest.(check bool) "table has header" true
    (String.length table > 0 && String.sub table 0 4 = "node");
  let gt = Machine.Ground_truth.ideal () in
  let sim = Pipeline.simulate gt plan in
  Alcotest.(check bool) "sim gantt" true (String.length (Gantt.of_sim sim) > 100)

let suite =
  [
    Alcotest.test_case "schedule: make + accessors" `Quick
      test_schedule_make_and_accessors;
    Alcotest.test_case "schedule: rejects bad entries" `Quick
      test_schedule_rejects_bad_entries;
    Alcotest.test_case "schedule: validate catches overlap" `Quick
      test_schedule_validate_catches_overlap;
    Alcotest.test_case "bounds: theorem factors" `Quick test_bounds_factors;
    Alcotest.test_case "bounds: Corollary 1 optimal PB" `Quick
      test_bounds_optimal_pb;
    Alcotest.test_case "bounds: validation" `Quick test_bounds_validation;
    Alcotest.test_case "allocation: requires normalised graph" `Quick
      test_allocation_requires_normalised;
    Alcotest.test_case "allocation: rejects NaN solver options and x0" `Quick
      test_allocation_rejects_solver_inputs;
    Alcotest.test_case "allocation: within box + converged" `Quick
      test_allocation_within_box;
    Alcotest.test_case "allocation: phi = max(avg, cp)" `Quick
      test_allocation_phi_is_max_avg_cp;
    Alcotest.test_case "allocation: expr matches weights" `Quick
      test_allocation_consistent_with_weights;
    Alcotest.test_case "allocation: symmetry" `Quick
      test_allocation_symmetric_branches;
    Alcotest.test_case "allocation: phi lower-bounds hand schedules" `Quick
      test_allocation_example_phi_below_hand_schedules;
    QCheck_alcotest.to_alcotest prop_allocation_globally_optimal;
    Alcotest.test_case "psa: rounding modes" `Quick test_psa_rounding_modes;
    Alcotest.test_case "psa: rounding capped at machine" `Quick
      test_psa_rounding_caps_at_machine;
    Alcotest.test_case "psa: bounding step" `Quick test_psa_bound;
    Alcotest.test_case "psa: schedules validate" `Quick test_psa_schedule_is_valid;
    Alcotest.test_case "psa: respects fixed PB" `Quick test_psa_respects_pb;
    Alcotest.test_case "psa: auto PB = Corollary 1" `Quick
      test_psa_auto_pb_matches_corollary;
    Alcotest.test_case "psa: lower bounds hold" `Quick test_psa_lower_bounds_hold;
    Alcotest.test_case "psa: partial selection == reference sort" `Quick
      test_psa_selection_matches_reference;
    QCheck_alcotest.to_alcotest prop_psa_matches_reference;
    Alcotest.test_case "psa: FIFO ablation sanity" `Quick
      test_psa_fifo_ablation_no_better;
    QCheck_alcotest.to_alcotest prop_theorem1;
    QCheck_alcotest.to_alcotest prop_theorem2;
    QCheck_alcotest.to_alcotest prop_rounding_factor_bounds;
    QCheck_alcotest.to_alcotest prop_theorem3;
    QCheck_alcotest.to_alcotest prop_schedule_always_valid;
    Alcotest.test_case "codegen: sim matches prediction (ideal)" `Quick
      test_codegen_sim_matches_prediction_on_ideal;
    Alcotest.test_case "codegen: sends match recvs" `Quick
      test_codegen_mpmd_has_expected_messages;
    Alcotest.test_case "codegen: SPMD 1D chain has no real comm" `Quick
      test_spmd_oned_graph_no_real_comm;
    Alcotest.test_case "pipeline: MPMD beats SPMD (complex mm)" `Slow
      test_pipeline_mpmd_beats_spmd_on_complex_mm;
    Alcotest.test_case "pipeline: serial time" `Quick test_pipeline_serial_time;
    Alcotest.test_case "gantt renders" `Quick test_gantt_renders;
  ]
