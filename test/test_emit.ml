(* The allocation objective's tape emitter (Allocation.objective_tape)
   against its reference, Tape.compile of the Expr objective: the two
   tapes must be equal array for array and bit for bit, and where the
   Expr builders raise the emitter must raise the same exception.  The
   cases cover random workgen and layered graphs and the calibrated
   paper graphs, at several machine sizes and transfer constants, with
   kernel and edge mutations that produce constant finish times,
   pooled constants and collapsed one-child sums.  A last case pins
   that the plan path builds no Expr node at all. *)

module G = Mdg.Graph
module P = Costmodel.Params

let procs_menu = [| 1; 2; 16; 64 |]

(* ------------------------------------------------------------------ *)
(* Transfer constants                                                  *)
(* ------------------------------------------------------------------ *)

type transfer_case =
  | Cm5  (** t_n = 0: every network term folds *)
  | Network  (** t_n > 0 *)
  | Unit_startup  (** t_ss = t_sr = 1: the one-port scales are elided *)
  | Jittered of int  (** every constant scaled by a seeded factor *)
  | Zeroed of int  (** one of t_ss, t_ps, t_sr, t_pr set to 0 *)

let transfer_print = function
  | Cm5 -> "cm5"
  | Network -> "network"
  | Unit_startup -> "unit-startup"
  | Jittered s -> Printf.sprintf "jittered(%d)" s
  | Zeroed k -> Printf.sprintf "zeroed(%d)" k

let transfer_of = function
  | Cm5 -> P.cm5_transfer
  | Network -> { P.cm5_transfer with t_n = 3.5e-9 }
  | Unit_startup -> { P.cm5_transfer with t_ss = 1.0; t_sr = 1.0 }
  | Jittered seed ->
      let st = Random.State.make [| seed |] in
      let j v = v *. (0.9 +. Random.State.float st 0.2) in
      let tr = P.cm5_transfer in
      {
        t_ss = j tr.t_ss;
        t_ps = j tr.t_ps;
        t_sr = j tr.t_sr;
        t_pr = j tr.t_pr;
        t_n = j 2e-9;
      }
  | Zeroed k -> (
      let tr = { P.cm5_transfer with t_n = 1e-9 } in
      match k mod 4 with
      | 0 -> { tr with t_ss = 0.0 }
      | 1 -> { tr with t_ps = 0.0 }
      | 2 -> { tr with t_sr = 0.0 }
      | _ -> { tr with t_pr = 0.0 })

let transfer_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return Cm5);
        (2, return Network);
        (2, return Unit_startup);
        (3, map (fun s -> Jittered s) (int_bound 100_000));
        (1, map (fun k -> Zeroed k) (int_bound 3));
      ])

(* [params]'s processing table over new transfer constants. *)
let with_transfer params tr =
  let p = P.make ~transfer:tr in
  List.iter
    (fun k -> P.set_processing p k (P.processing params k))
    (P.known_kernels params);
  p

(* ------------------------------------------------------------------ *)
(* Kernel and edge mutations                                           *)
(* ------------------------------------------------------------------ *)

(* Rebuild [g] with a seeded share of its synthetic kernels replaced by
   the degenerate Amdahl pairs (alpha 0 or 1, alpha 0.5 — a tie between
   the serial and parallel coefficients — tau 0, or a Dummy) and a
   share of its edges made zero-byte.  Structure is unchanged, so the
   graph stays normalised. *)
let mutate ~seed g =
  if seed = 0 then g
  else
    let st = Random.State.make [| seed |] in
    let b = G.create_builder () in
    Array.iter
      (fun (nd : G.node) ->
        let kernel =
          match nd.kernel with
          | G.Synthetic { tau; _ } when Random.State.int st 3 = 0 -> (
              match Random.State.int st 5 with
              | 0 -> G.Synthetic { alpha = 0.0; tau }
              | 1 -> G.Synthetic { alpha = 1.0; tau }
              | 2 -> G.Synthetic { alpha = 0.5; tau }
              | 3 -> G.Synthetic { alpha = 0.3; tau = 0.0 }
              | _ -> G.Dummy)
          | k -> k
        in
        ignore (G.add_node b ~label:nd.label ~kernel))
      (G.nodes g);
    List.iter
      (fun (e : G.edge) ->
        let bytes = if Random.State.int st 3 = 0 then 0.0 else e.bytes in
        G.add_edge b ~src:e.src ~dst:e.dst ~bytes ~kind:e.kind)
      (G.edges g);
    G.build b

(* ------------------------------------------------------------------ *)
(* The equality check                                                  *)
(* ------------------------------------------------------------------ *)

let outcome f =
  match f () with
  | t -> Ok t
  | exception Invalid_argument msg -> Error msg

let emitted_equals_compiled params g ~procs =
  let emitted () = Core.Allocation.objective_tape params g ~procs in
  let compiled () =
    Convex.Tape.compile (Core.Allocation.objective params g ~procs)
  in
  match (outcome emitted, outcome compiled) with
  | Ok a, Ok b -> Convex.Tape.equal a b
  | Error a, Error b -> String.equal a b
  | Ok _, Error msg ->
      QCheck.Test.fail_reportf "Expr path raised %S, emitter did not" msg
  | Error msg, Ok _ ->
      QCheck.Test.fail_reportf "emitter raised %S, Expr path did not" msg

type case = { procs : int; transfer : transfer_case; mutation : int }

let case_print { procs; transfer; mutation } =
  Printf.sprintf "procs=%d transfer=%s mutation=%d" procs
    (transfer_print transfer) mutation

let case =
  QCheck.make ~print:case_print
    QCheck.Gen.(
      map3
        (fun procs transfer mutation -> { procs; transfer; mutation })
        (oneofa procs_menu) transfer_gen
        (frequency [ (1, return 0); (3, int_range 1 100_000) ]))

let check_case graph { procs; transfer; mutation } =
  let g = G.normalise (mutate ~seed:mutation (G.normalise graph)) in
  let params = P.make ~transfer:(transfer_of transfer) in
  emitted_equals_compiled params g ~procs

let prop_workgen =
  QCheck.Test.make ~name:"emitted tape = compiled Expr tape (workgen)"
    ~count:(Generators.count 300)
    (QCheck.pair (Generators.workgen_case ()) case)
    (fun (wg, c) -> check_case (Generators.mdg_of_workgen wg) c)

let prop_layered =
  QCheck.Test.make ~name:"emitted tape = compiled Expr tape (layered)"
    ~count:(Generators.count 300)
    (QCheck.pair (Generators.layered ()) case)
    (fun (l, c) -> check_case (Generators.mdg_of_layered l) c)

(* The calibrated paper graphs: complex matrix multiply (n = 64) and
   recursive Strassen at one to three levels, every machine size and
   every fixed transfer set. *)
let paper_graphs () =
  let gt = Machine.Ground_truth.cm5_like () in
  let procs = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let complex =
    let g, _ = Kernels.Complex_mm.graph ~n:64 () in
    let p, _, _ =
      Machine.Measure.calibrate gt ~procs (Kernels.Complex_mm.kernels ~n:64)
    in
    ("complex-mm-64", g, p)
  in
  let strassen levels =
    let g = Kernels.Strassen_mdg.graph_recursive ~levels ~n:128 in
    let p, _, _ =
      Machine.Measure.calibrate gt ~procs
        (Kernels.Strassen_mdg.kernels_recursive ~levels ~n:128)
    in
    (Printf.sprintf "strassen-l%d" levels, g, p)
  in
  [ complex; strassen 1; strassen 2; strassen 3 ]

let test_paper_graphs () =
  List.iter
    (fun (name, graph, params) ->
      let g = G.normalise graph in
      List.iter
        (fun transfer ->
          let params = with_transfer params (transfer_of transfer) in
          Array.iter
            (fun procs ->
              if not (emitted_equals_compiled params g ~procs) then
                Alcotest.failf "%s, procs=%d, transfer=%s: tapes differ" name
                  procs (transfer_print transfer))
            procs_menu)
        [ Cm5; Network; Unit_startup; Jittered 7; Zeroed 1 ])
    (paper_graphs ())

(* ------------------------------------------------------------------ *)
(* No Expr on the plan path                                            *)
(* ------------------------------------------------------------------ *)

(* Expr ids come from one global counter, so two probe constants made
   around a call have consecutive ids exactly when the call built no
   Expr node. *)
let builds_no_expr name f =
  let before = Convex.Expr.id (Convex.Expr.const 0.0) in
  ignore (f ());
  let after = Convex.Expr.id (Convex.Expr.const 0.0) in
  Alcotest.(check int) (name ^ ": no Expr node built") (before + 1) after

let test_no_expr () =
  let g = G.normalise (Generators.mdg_of_seed ~layers:3 ~width:3 11) in
  let params = Generators.synth_params () in
  builds_no_expr "Allocation.solve" (fun () ->
      Core.Allocation.solve params g ~procs:16);
  builds_no_expr "cold Pipeline.plan" (fun () ->
      Core.Pipeline.plan_exn params g ~procs:16);
  let config =
    Core.Pipeline.with_cache
      (Core.Plan_cache.create ())
      Core.Pipeline.default_config
  in
  builds_no_expr "cold cached Pipeline.plan" (fun () ->
      Core.Pipeline.plan_exn ~config params g ~procs:16)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_workgen;
    QCheck_alcotest.to_alcotest prop_layered;
    Alcotest.test_case "emitted tape = compiled Expr tape (paper graphs)" `Slow
      test_paper_graphs;
    Alcotest.test_case "plan path builds no Expr node" `Quick test_no_expr;
  ]
