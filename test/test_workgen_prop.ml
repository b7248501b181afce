(* Pipeline-wide metamorphic properties over Workgen's recursive
   divide-combine workloads (ISSUE 8): for any generated workload the
   whole stack must hold its contracts end to end —

   1. the PSA schedule passes Schedule.validate;
   2. Theorem 3 / Corollary 1 bounds hold;
   3. plan-cache exact hits are bit-identical and shape hits never
      worse than a cold solve;
   4. the solver's Phi is monotone non-increasing in the machine size
      on a fixed shape;
   5. generation is deterministic per (spec, seed);

   plus front-end coverage: interpreting a generated recursive
   program and re-executing it in its lowered MDG's schedule order
   compute the same matrices.

   Failures shrink (fewer levels, smaller fan-out, constant costs) via
   Workgen.shrink_spec, and every entry of test/corpus/workgen.seeds
   is replayed through the full invariant bundle on every run so past
   failures stay fixed.  Replay a single case locally with
     PARADIGM_WORKGEN_REPLAY='<spec>:<seed>' dune runtest --force *)

module G = Mdg.Graph
module W = Workgen

let synth_params = Generators.synth_params
let procs = 16
let guard phi = 1e-6 *. (1.0 +. Float.abs phi)

(* ------------------------------------------------------------------ *)
(* The invariant bundle                                                *)
(*                                                                     *)
(* Each check takes a [fail : string -> unit] so the same code runs    *)
(* under QCheck (fail_report) and under Alcotest (corpus replay).      *)
(* ------------------------------------------------------------------ *)

let check_deterministic fail spec seed =
  let a = W.generate spec ~seed and b = W.generate spec ~seed in
  if G.structural_hash a <> G.structural_hash b then
    fail "two generations of the same (spec, seed) hash differently";
  if Generators.signature a <> Generators.signature b then
    fail "two generations of the same (spec, seed) differ structurally"

let check_well_formed fail spec seed =
  let g = W.generate spec ~seed in
  if not (G.is_normalised g) then fail "generated graph is not normalised";
  ignore (G.start_node g);
  ignore (G.stop_node g);
  let n = G.num_nodes g in
  let bound = (W.num_tasks spec * (spec.W.divide + spec.W.combine + 1)) + 2 in
  (* normalise reuses a unique source/sink as START/STOP, so the
     smallest legal workload (leaf -> combine) has just two nodes. *)
  if n < 2 then fail (Printf.sprintf "only %d nodes" n);
  if n > bound then
    fail (Printf.sprintf "%d nodes exceed the balanced-tree bound %d" n bound)

(* Solve + PSA once; the schedule and bounds checks share the result. *)
let solve_and_schedule g params ~procs =
  let r = Core.Allocation.solve params g ~procs in
  let psa = Core.Psa.schedule params g ~procs ~alloc:r.alloc in
  (r, psa)

let check_schedule_valid fail g params ~procs =
  let r, psa = solve_and_schedule g params ~procs in
  (match Core.Schedule.validate params g psa.schedule with
  | Ok () -> ()
  | Error msgs ->
      fail ("Schedule.validate: " ^ String.concat "; " msgs));
  (r, psa)

let check_bounds fail g params ~procs =
  let r, psa = solve_and_schedule g params ~procs in
  if
    not
      (Core.Bounds.check_theorem3 ~t_psa:psa.t_psa ~phi:r.phi ~procs
         ~pb:psa.pb)
  then
    fail
      (Printf.sprintf "Theorem 3 violated: T_psa %g > factor * Phi %g"
         psa.t_psa r.phi);
  let pb = Core.Bounds.optimal_pb ~procs in
  if psa.pb <> pb then
    fail (Printf.sprintf "PSA applied PB %d, Corollary 1 says %d" psa.pb pb);
  if pb < 1 || pb > procs || pb land (pb - 1) <> 0 then
    fail (Printf.sprintf "PB %d is not a power of two in [1, %d]" pb procs);
  if not (Array.for_all (fun a -> a >= 1 && a <= pb) psa.rounded_alloc) then
    fail "a rounded allocation escapes [1, PB]"

let plan_phi ?config req =
  match Core.Pipeline.plan ?config req with
  | Ok p -> p
  | Error e -> failwith ("plan failed: " ^ Core.Pipeline.error_to_string e)

let check_cache_sound fail g ~procs =
  let module P = Core.Pipeline in
  let params = synth_params () in
  let params' = Generators.perturbed ~scale:1.07 params in
  let cold' = plan_phi (P.request params' g ~procs) in
  let cache = Core.Plan_cache.create () in
  let config = P.(default_config |> with_cache cache) in
  let first = plan_phi ~config (P.request params g ~procs) in
  (* Exact duplicate: served from the cache, bit-identical. *)
  let again = plan_phi ~config (P.request params g ~procs) in
  if again.cache.warm <> P.Hit then fail "second identical plan missed";
  if not again.cache.solve_skipped then
    fail "exact hit re-entered the solver";
  if P.phi again <> P.phi first then
    fail
      (Printf.sprintf "exact hit Phi %.17g <> first Phi %.17g" (P.phi again)
         (P.phi first));
  (* Perturbed constants: a shape hit, never worse than a cold solve. *)
  let warm' = plan_phi ~config (P.request params' g ~procs) in
  if warm'.cache.warm <> P.Shape_hit then
    fail "perturbed plan was not a shape hit";
  if P.phi warm' > P.phi cold' +. guard (P.phi cold') then
    fail
      (Printf.sprintf "shape-hit Phi %.12g worse than cold %.12g"
         (P.phi warm') (P.phi cold'))

let check_phi_monotone fail g =
  let phis =
    List.map
      (fun procs -> (Core.Allocation.solve (synth_params ()) g ~procs).phi)
      [ 4; 8; 16; 32 ]
  in
  let rec go = function
    | a :: (b :: _ as rest) ->
        if b > a +. (1e-4 *. (1.0 +. Float.abs a)) then
          fail
            (Printf.sprintf "Phi rose from %.9g to %.9g with more processors"
               a b);
        go rest
    | _ -> ()
  in
  go phis

(* Front-end: interp the generated program, then re-execute its
   statements in the lowered MDG's schedule order; SSA form plus
   correct flow-dependence edges make the two runs compute identical
   matrices. *)
let frontend_params prog =
  let p = synth_params () in
  List.iter
    (fun (k : G.kernel) ->
      let pr : Costmodel.Params.processing =
        match k with
        | Matrix_init _ -> { alpha = 0.2; tau = 0.005 }
        | Matrix_add _ -> { alpha = 0.15; tau = 0.01 }
        | Matrix_multiply _ -> { alpha = 0.1; tau = 0.05 }
        | Synthetic _ | Dummy -> assert false
      in
      Costmodel.Params.set_processing p k pr)
    (Frontend.Lower.kernels prog);
  p

let check_frontend_agrees fail spec seed =
  let prog = W.generate_program spec ~seed ~size:8 in
  let g, map = Frontend.Lower.to_mdg prog in
  let params = frontend_params prog in
  let plan = Core.Pipeline.plan_exn params g ~procs:8 in
  let stmt_of_node = Hashtbl.create 32 in
  Array.iteri
    (fun stmt node -> Hashtbl.replace stmt_of_node node stmt)
    map.node_of_stmt;
  let stmts = Array.of_list prog.stmts in
  let order =
    (* Schedule.entries is sorted by start time (ties by node id); keep
       only statement nodes (dropping START/STOP dummies). *)
    Core.Schedule.entries (Core.Pipeline.schedule plan)
    |> List.filter_map (fun (e : Core.Schedule.entry) ->
           Hashtbl.find_opt stmt_of_node e.node)
  in
  if List.length order <> Array.length stmts then
    fail "schedule does not place every statement exactly once";
  let reordered =
    Frontend.Ast.program ~size:prog.size (List.map (fun k -> stmts.(k)) order)
  in
  if
    not
      (Frontend.Interp.equivalent
         ~on:(Frontend.Ast.defined_matrices prog)
         prog reordered)
  then fail "schedule-order execution disagrees with the interpreter"

(* The full bundle, for corpus pins and env-var replay. *)
let check_all fail spec seed =
  let g = W.generate spec ~seed in
  check_deterministic fail spec seed;
  check_well_formed fail spec seed;
  let _ = check_schedule_valid fail g (synth_params ()) ~procs in
  check_bounds fail g (synth_params ()) ~procs;
  check_cache_sound fail g ~procs;
  check_phi_monotone fail g;
  check_frontend_agrees fail spec seed

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let qfail msg = QCheck.Test.fail_report msg

let prop name ~count ?(arb = Generators.workgen_case ()) body =
  QCheck.Test.make ~name ~count:(Generators.count count) arb (fun case ->
      body case.Generators.wg_spec case.Generators.wg_seed;
      true)

let prop_deterministic =
  prop "generate is deterministic per (spec, seed)" ~count:50
    (check_deterministic qfail)

let prop_well_formed =
  prop "generated graphs are normalised and tree-bounded" ~count:100
    (check_well_formed qfail)

let prop_schedule_valid =
  prop "Schedule.validate passes on generated workloads" ~count:20
    (fun spec seed ->
      let g = W.generate spec ~seed in
      ignore (check_schedule_valid qfail g (synth_params ()) ~procs))

let prop_bounds =
  prop "Theorem 3 and Corollary 1 hold on generated workloads" ~count:15
    (fun spec seed ->
      let g = W.generate spec ~seed in
      List.iter
        (fun procs -> check_bounds qfail g (synth_params ()) ~procs)
        [ 4; 16; 64 ])

let prop_cache =
  prop "plan cache: exact hits bit-identical, shape hits never worse"
    ~count:10 (fun spec seed ->
      check_cache_sound qfail (W.generate spec ~seed) ~procs)

let prop_phi_monotone =
  prop "Phi is monotone non-increasing in machine size" ~count:10
    (fun spec seed -> check_phi_monotone qfail (W.generate spec ~seed))

let prop_frontend =
  QCheck.Test.make
    ~name:"interp agrees with schedule-order execution of lowered programs"
    ~count:(Generators.count 15) (Generators.program_case ())
    (fun case ->
      check_frontend_agrees qfail case.Generators.wg_spec
        case.Generators.wg_seed;
      true)

let prop_program_deterministic =
  QCheck.Test.make ~name:"generate_program is deterministic per (spec, seed)"
    ~count:(Generators.count 50) (Generators.program_case ())
    (fun { Generators.wg_spec = spec; wg_seed = seed } ->
      Workgen.generate_program spec ~seed ~size:8
      = Workgen.generate_program spec ~seed ~size:8)

(* ------------------------------------------------------------------ *)
(* Spec grammar and shrinking                                          *)
(* ------------------------------------------------------------------ *)

let test_spec_roundtrip () =
  let specs =
    [
      W.default_spec;
      { W.default_spec with depth = 0; branching = 1; divide = 0; combine = 0 };
      W.spec_of_string_exn "depth=4,branch=2,cutoff=0.5,tau=u0.01~0.05";
      W.spec_of_string_exn "tau=0.25,alpha=0.1,bytes=l2048~4096,twod=1";
    ]
  in
  List.iter
    (fun s ->
      let str = W.spec_to_string s in
      match W.spec_of_string str with
      | Ok s' ->
          Alcotest.(check bool)
            (Printf.sprintf "%S round-trips" str)
            true (s = s')
      | Error e -> Alcotest.failf "%S failed to parse back: %s" str e)
    specs;
  (* The empty string is the default spec. *)
  Alcotest.(check bool) "empty spec is default" true
    (W.spec_of_string "" = Ok W.default_spec)

let test_spec_errors () =
  let fails str =
    match W.spec_of_string str with
    | Ok _ -> Alcotest.failf "%S unexpectedly parsed" str
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S has a message" str)
          true
          (String.length msg > 0)
  in
  fails "depth";
  fails "depth=x";
  fails "unknown=3";
  fails "tau=u1";
  fails "tau=q1~2";
  fails "depth=-1";
  fails "branch=0";
  fails "cutoff=1.5";
  fails "tau=l0~1"

let test_shrink_well_founded () =
  (* From a maximal spec, greedily taking the first shrink candidate
     must bottom out; every candidate along the way is valid. *)
  let start =
    W.spec_of_string_exn "depth=4,branch=4,div=3,comb=3,cutoff=0.5,wiring=0.5"
  in
  let steps = ref 0 in
  let s = ref start in
  let continue = ref true in
  while !continue do
    match W.shrink_spec !s with
    | [] -> continue := false
    | cands ->
        List.iter W.validate cands;
        s := List.hd cands;
        incr steps;
        if !steps > 1000 then Alcotest.fail "shrinking did not terminate"
  done;
  Alcotest.(check bool) "shrinking reached a minimal spec" true (!steps > 0);
  Alcotest.(check int) "minimal spec has depth 0" 0 !s.W.depth

let test_structural_corners () =
  (* cutoff = 1: every child collapses to a leaf, so the graph is one
     divide phase, [branching] leaves, one combine phase — and the
     lone divide/combine nodes double as START/STOP (normalise reuses
     a unique source/sink). *)
  let s = W.spec_of_string_exn "depth=3,branch=2,div=1,comb=1,cutoff=1" in
  let g = W.generate s ~seed:5 in
  Alcotest.(check int) "cutoff=1 node count" (1 + 2 + 1) (G.num_nodes g);
  (* No divide/combine nodes and no cutoff: pure leaves, b^d of them. *)
  let s = W.spec_of_string_exn "depth=3,branch=2,div=0,comb=0" in
  let g = W.generate s ~seed:5 in
  Alcotest.(check int) "leaf-only node count" (8 + 2) (G.num_nodes g);
  (* Degenerate recursion: a single leaf between START and STOP. *)
  let s = W.spec_of_string_exn "depth=0" in
  let g = W.generate s ~seed:5 in
  Alcotest.(check int) "single leaf" 3 (G.num_nodes g)

(* ------------------------------------------------------------------ *)
(* Corpus replay                                                       *)
(* ------------------------------------------------------------------ *)

(* dune runs the test binary from _build/default/test; `dune exec
   test/test_main.exe` from the repo root needs the source-tree path. *)
let corpus_path =
  if Sys.file_exists "corpus/workgen.seeds" then "corpus/workgen.seeds"
  else "test/corpus/workgen.seeds"

let load_corpus () =
  let ic = open_in corpus_path in
  let entries = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         match String.index_opt line ' ' with
         | Some i ->
             let spec = W.spec_of_string_exn (String.sub line 0 i) in
             let seed =
               int_of_string
                 (String.trim
                    (String.sub line (i + 1) (String.length line - i - 1)))
             in
             entries := (spec, seed) :: !entries
         | None -> failwith ("corpus line without a seed: " ^ line)
     done
   with End_of_file -> close_in ic);
  List.rev !entries

let test_corpus_replay () =
  let entries = load_corpus () in
  Alcotest.(check bool) "corpus is not empty" true (entries <> []);
  List.iter
    (fun (spec, seed) ->
      let fail msg =
        Alcotest.failf "corpus pin %s seed %d: %s" (W.spec_to_string spec)
          seed msg
      in
      check_all fail spec seed)
    entries

let test_env_replay () =
  match Sys.getenv_opt "PARADIGM_WORKGEN_REPLAY" with
  | None | Some "" -> ()
  | Some entry -> (
      match String.rindex_opt entry ':' with
      | None ->
          Alcotest.failf
            "PARADIGM_WORKGEN_REPLAY=%S: want '<spec>:<seed>'" entry
      | Some i ->
          let spec = W.spec_of_string_exn (String.sub entry 0 i) in
          let seed =
            int_of_string
              (String.sub entry (i + 1) (String.length entry - i - 1))
          in
          let fail msg =
            Alcotest.failf "replay %s seed %d: %s" (W.spec_to_string spec)
              seed msg
          in
          check_all fail spec seed)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_deterministic;
      prop_well_formed;
      prop_schedule_valid;
      prop_bounds;
      prop_cache;
      prop_phi_monotone;
      prop_frontend;
      prop_program_deterministic;
    ]
  @ [
      Alcotest.test_case "spec grammar round-trips" `Quick test_spec_roundtrip;
      Alcotest.test_case "spec grammar rejects bad input" `Quick
        test_spec_errors;
      Alcotest.test_case "shrinking is well-founded" `Quick
        test_shrink_well_founded;
      Alcotest.test_case "structural corners" `Quick test_structural_corners;
      Alcotest.test_case "corpus replay" `Slow test_corpus_replay;
      Alcotest.test_case "env replay hook (PARADIGM_WORKGEN_REPLAY)" `Quick
        test_env_replay;
    ]
