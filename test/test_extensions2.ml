(* Tests for the second wave of extensions: recursive Strassen MDGs,
   the front-end optimiser, and Chrome trace export. *)

module G = Mdg.Graph
open Frontend

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Recursive Strassen                                                  *)
(* ------------------------------------------------------------------ *)

let test_recursive_level1_shape () =
  let g = Kernels.Strassen_mdg.graph_recursive ~levels:1 ~n:128 in
  (* 2 init + 10 pre + 7 mul + 8 post + 1 assemble + START (the assemble node is the unique sink) = 29. *)
  Alcotest.(check int) "29 nodes" 29 (G.num_nodes g);
  Alcotest.(check bool) "normalised" true (G.is_normalised g);
  let muls =
    Array.to_list (G.nodes g)
    |> List.filter (fun (nd : G.node) ->
           match nd.kernel with G.Matrix_multiply _ -> true | _ -> false)
  in
  Alcotest.(check int) "7 multiplies" 7 (List.length muls);
  List.iter
    (fun (nd : G.node) ->
      Alcotest.(check bool) "64x64 muls" true (nd.kernel = G.Matrix_multiply 64))
    muls

let test_recursive_level2_shape () =
  let g = Kernels.Strassen_mdg.graph_recursive ~levels:2 ~n:128 in
  (* Top level: 10 pre + 8 post; each of 7 products expands to
     10 + 7 + 8 + 1 = 26 nodes; plus 2 inits, 1 assemble, START/STOP:
     2 + 10 + 7*26 + 8 + 1 + 2 = 205. *)
  Alcotest.(check int) "204 nodes" 204 (G.num_nodes g);
  let count p =
    Array.to_list (G.nodes g)
    |> List.filter (fun (nd : G.node) -> p nd.kernel)
    |> List.length
  in
  Alcotest.(check int) "49 leaf multiplies" 49
    (count (function G.Matrix_multiply 32 -> true | _ -> false));
  Alcotest.(check int) "half-size adds" 18
    (count (function G.Matrix_add 64 -> true | _ -> false));
  Alcotest.(check int) "quarter-size adds" (7 * 18)
    (count (function G.Matrix_add 32 -> true | _ -> false))

let test_recursive_kernels () =
  Alcotest.(check int) "4 kernels at 2 levels" 4
    (List.length (Kernels.Strassen_mdg.kernels_recursive ~levels:2 ~n:128));
  Alcotest.check_raises "indivisible"
    (Invalid_argument "Strassen_mdg: n must be divisible by 2^levels")
    (fun () -> ignore (Kernels.Strassen_mdg.graph_recursive ~levels:3 ~n:20))

let test_recursive_schedulable () =
  (* The 205-node graph goes through the whole pipeline. *)
  let g = Kernels.Strassen_mdg.graph_recursive ~levels:2 ~n:128 in
  let gt = Machine.Ground_truth.cm5_like () in
  let params, _, _ =
    Machine.Measure.calibrate gt
      ~procs:[ 1; 2; 4; 8; 16; 32; 64 ]
      (Kernels.Strassen_mdg.kernels_recursive ~levels:2 ~n:128)
  in
  (* A low-effort solve suffices: this test validates schedulability
     and simulation of the big graph, not allocation optimality. *)
  let config =
    Core.Pipeline.(
      default_config
      |> with_solver_options
           { Convex.Solver.default_options with mu_final = 1e-3 })
  in
  let plan = Core.Pipeline.plan_exn ~config params g ~procs:64 in
  (match Core.Schedule.validate params plan.graph plan.psa.schedule with
  | Ok () -> ()
  | Error msgs -> Alcotest.fail (String.concat "; " msgs));
  let sim = Core.Pipeline.simulate gt plan in
  Alcotest.(check bool) "simulates" true (sim.finish_time > 0.0);
  Alcotest.(check bool) "prediction sane" true
    (Float.abs (Core.Pipeline.predicted_time plan -. sim.finish_time)
     /. sim.finish_time
    < 0.5)

(* ------------------------------------------------------------------ *)
(* Optimiser                                                           *)
(* ------------------------------------------------------------------ *)

let prog stmts = Ast.program ~size:16 stmts

let test_dce_removes_unused () =
  let p =
    prog
      [
        Ast.stmt "A" Ast.Init;
        Ast.stmt "B" Ast.Init;
        Ast.stmt "Unused" (Ast.Mul ("A", "B"));
        Ast.stmt "C" (Ast.Add ("A", "B"));
      ]
  in
  let q = Opt.dead_code_elimination ~keep:[ "C" ] p in
  Alcotest.(check int) "3 stmts left" 3 (List.length q.stmts);
  Alcotest.(check bool) "Unused gone" false
    (List.exists (fun (s : Ast.stmt) -> s.target = "Unused") q.stmts)

let test_dce_removes_shadowed_definition () =
  let p =
    prog
      [
        Ast.stmt "A" Ast.Init;
        Ast.stmt "B" (Ast.Add ("A", "A"));  (* dead: B redefined below, never read *)
        Ast.stmt "B" (Ast.Mul ("A", "A"));
      ]
  in
  let q = Opt.dead_code_elimination p in
  Alcotest.(check int) "2 stmts" 2 (List.length q.stmts)

let test_dce_keeps_transitive_deps () =
  let p =
    prog
      [
        Ast.stmt "A" Ast.Init;
        Ast.stmt "B" (Ast.Add ("A", "A"));
        Ast.stmt "C" (Ast.Mul ("B", "B"));
      ]
  in
  let q = Opt.dead_code_elimination ~keep:[ "C" ] p in
  Alcotest.(check int) "all kept" 3 (List.length q.stmts)

let test_dce_rejects_unknown_keep () =
  Alcotest.check_raises "unknown"
    (Invalid_argument "Opt: keep mentions undefined matrix Z") (fun () ->
      ignore (Opt.dead_code_elimination ~keep:[ "Z" ] (prog [ Ast.stmt "A" Ast.Init ])))

let test_cse_merges_duplicates () =
  let p =
    prog
      [
        Ast.stmt "A" Ast.Init;
        Ast.stmt "B" Ast.Init;
        Ast.stmt "P" (Ast.Mul ("A", "B"));
        Ast.stmt "Q" (Ast.Mul ("A", "B"));  (* same value as P *)
        Ast.stmt "R" (Ast.Add ("P", "Q"));
      ]
  in
  let q = Opt.common_subexpressions p in
  Alcotest.(check int) "Q eliminated" 4 (List.length q.stmts);
  (* R now reads P twice. *)
  let r = List.nth q.stmts 3 in
  Alcotest.(check bool) "R reads P twice" true (r.rhs = Ast.Add ("P", "P"))

let test_cse_add_commutative_mul_not () =
  let p =
    prog
      [
        Ast.stmt "A" Ast.Init;
        Ast.stmt "B" Ast.Init;
        Ast.stmt "S1" (Ast.Add ("A", "B"));
        Ast.stmt "S2" (Ast.Add ("B", "A"));  (* merged: + commutes *)
        Ast.stmt "P1" (Ast.Mul ("A", "B"));
        Ast.stmt "P2" (Ast.Mul ("B", "A"));  (* kept: matrix * does not *)
        Ast.stmt "Out" (Ast.Add ("S2", "P2"));
      ]
  in
  let q = Opt.common_subexpressions p in
  Alcotest.(check int) "one add merged" 6 (List.length q.stmts)

let test_cse_respects_redefinition () =
  let p =
    prog
      [
        Ast.stmt "A" Ast.Init;
        Ast.stmt "B" Ast.Init;
        Ast.stmt "S" (Ast.Add ("A", "B"));
        Ast.stmt "A" Ast.Init;               (* A changes value *)
        Ast.stmt "T" (Ast.Add ("A", "B"));   (* must NOT merge with S *)
      ]
  in
  let q = Opt.common_subexpressions p in
  Alcotest.(check int) "nothing merged" 5 (List.length q.stmts)

let test_cse_never_merges_init () =
  let p = prog [ Ast.stmt "A" Ast.Init; Ast.stmt "B" Ast.Init ] in
  Alcotest.(check int) "inits kept" 2
    (List.length (Opt.common_subexpressions p).stmts)

let test_optimise_shrinks_mdg () =
  let p =
    prog
      [
        Ast.stmt "A" Ast.Init;
        Ast.stmt "B" Ast.Init;
        Ast.stmt "P" (Ast.Mul ("A", "B"));
        Ast.stmt "Q" (Ast.Mul ("A", "B"));
        Ast.stmt "Dead" (Ast.Add ("Q", "Q"));
        Ast.stmt "Out" (Ast.Add ("P", "Q"));
      ]
  in
  let q = Opt.optimise ~keep:[ "Out" ] p in
  let g_before, _ = Lower.to_mdg p in
  let g_after, _ = Lower.to_mdg q in
  Alcotest.(check bool) "fewer nodes" true
    (G.num_nodes g_after < G.num_nodes g_before);
  (* 4 statements survive: A, B, P, Out. *)
  Alcotest.(check int) "4 stmts" 4 (List.length q.stmts)

let test_optimise_preserves_semantics_structurally () =
  (* The dependence structure of the kept outputs is preserved: Out
     still transitively depends on both inits. *)
  let p =
    prog
      [
        Ast.stmt "A" Ast.Init;
        Ast.stmt "B" Ast.Init;
        Ast.stmt "P" (Ast.Mul ("A", "B"));
        Ast.stmt "Q" (Ast.Mul ("A", "B"));
        Ast.stmt "Out" (Ast.Add ("P", "Q"));
      ]
  in
  let q = Opt.optimise ~keep:[ "Out" ] p in
  let g, map = Lower.to_mdg q in
  let out_stmt =
    List.mapi (fun k s -> (k, s)) q.stmts
    |> List.find (fun (_, (s : Ast.stmt)) -> s.target = "Out")
    |> fst
  in
  let out_node = map.node_of_stmt.(out_stmt) in
  (* Walk back: Out is reachable from both init statements. *)
  List.iteri
    (fun k (s : Ast.stmt) ->
      if s.rhs = Ast.Init then
        let reach = Mdg.Analysis.reachable g map.node_of_stmt.(k) in
        Alcotest.(check bool) ("reaches Out from " ^ s.target) true
          reach.(out_node))
    q.stmts

(* ------------------------------------------------------------------ *)
(* Trace export                                                        *)
(* ------------------------------------------------------------------ *)

let small_sim () =
  let gt = Machine.Ground_truth.ideal () in
  let prog =
    Machine.Program.make ~procs:2
      [|
        [
          Machine.Program.Compute { node = 3; seconds = 0.5 };
          Machine.Program.Send { edge = 7; dst_proc = 1; bytes = 100.0 };
        ];
        [ Machine.Program.Recv { edge = 7; src_proc = 0; bytes = 100.0 } ];
      |]
  in
  Machine.Sim.run gt prog

let test_trace_json_structure () =
  let json = Machine.Trace_export.to_json (small_sim ()) in
  Alcotest.(check bool) "array" true
    (String.length json > 2 && json.[0] = '[');
  Alcotest.(check bool) "has compute event" true
    (contains json "\"compute node 3\"");
  Alcotest.(check bool) "has send event" true (contains json "\"send edge 7\"");
  Alcotest.(check bool) "has recv event" true (contains json "\"recv edge 7\"");
  Alcotest.(check bool) "thread metadata" true (contains json "\"thread_name\"");
  Alcotest.(check bool) "durations in us" true (contains json "\"dur\":500000.000")

let test_trace_event_count () =
  let r = small_sim () in
  let json = Machine.Trace_export.to_json r in
  (* Count "ph":"X" occurrences = number of segments. *)
  let occurrences =
    let rec go i acc =
      if i + 9 > String.length json then acc
      else if String.sub json i 9 = "\"ph\":\"X\"," then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "one event per segment" (List.length r.segments)
    occurrences

let test_trace_file () =
  let path = Filename.temp_file "trace" ".json" in
  Machine.Trace_export.save path (small_sim ());
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "nonempty file" true (len > 100)

let suite =
  [
    Alcotest.test_case "strassen recursive: level-1 shape" `Quick
      test_recursive_level1_shape;
    Alcotest.test_case "strassen recursive: level-2 shape" `Quick
      test_recursive_level2_shape;
    Alcotest.test_case "strassen recursive: kernels + validation" `Quick
      test_recursive_kernels;
    Alcotest.test_case "strassen recursive: full pipeline (205 nodes)" `Slow
      test_recursive_schedulable;
    Alcotest.test_case "opt: DCE removes unused" `Quick test_dce_removes_unused;
    Alcotest.test_case "opt: DCE removes shadowed defs" `Quick
      test_dce_removes_shadowed_definition;
    Alcotest.test_case "opt: DCE keeps transitive deps" `Quick
      test_dce_keeps_transitive_deps;
    Alcotest.test_case "opt: DCE validates keep" `Quick test_dce_rejects_unknown_keep;
    Alcotest.test_case "opt: CSE merges duplicates" `Quick test_cse_merges_duplicates;
    Alcotest.test_case "opt: CSE commutativity rules" `Quick
      test_cse_add_commutative_mul_not;
    Alcotest.test_case "opt: CSE respects redefinition" `Quick
      test_cse_respects_redefinition;
    Alcotest.test_case "opt: CSE never merges init" `Quick test_cse_never_merges_init;
    Alcotest.test_case "opt: optimise shrinks the MDG" `Quick
      test_optimise_shrinks_mdg;
    Alcotest.test_case "opt: dependence structure preserved" `Quick
      test_optimise_preserves_semantics_structurally;
    Alcotest.test_case "trace: JSON structure" `Quick test_trace_json_structure;
    Alcotest.test_case "trace: event count" `Quick test_trace_event_count;
    Alcotest.test_case "trace: file output" `Quick test_trace_file;
  ]
