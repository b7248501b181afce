module E = Convex.Expr
module G = Mdg.Graph
module P = Costmodel.Params
module T = Costmodel.Transfer

type result = {
  alloc : float array;
  phi : float;
  average : float;
  critical_path : float;
  solver : Convex.Solver.result;
}

let check params g ~procs =
  if procs < 1 then invalid_arg "Allocation: procs < 1";
  if not (G.is_normalised g) then
    invalid_arg "Allocation: graph must be normalised (unique START/STOP)";
  (* Fail fast on missing calibration. *)
  Array.iter (fun (nd : G.node) -> ignore (P.processing params nd.kernel)) (G.nodes g)

(* T_i as a convex expression: receive components of incoming edges,
   the processing cost, and send components of outgoing edges. *)
let node_weight_expr params g i =
  let nd = G.node g i in
  let tr = P.transfer params in
  let recvs =
    List.map
      (fun (e : G.edge) ->
        T.receive_expr tr ~kind:e.kind ~bytes:e.bytes ~vi:e.src ~vj:e.dst)
      (G.preds g i)
  in
  let sends =
    List.map
      (fun (e : G.edge) ->
        T.send_expr tr ~kind:e.kind ~bytes:e.bytes ~vi:e.src ~vj:e.dst)
      (G.succs g i)
  in
  let proc = Costmodel.Processing.expr (P.processing params nd.kernel) ~var:i in
  E.sum (recvs @ (proc :: sends))

(* T_i * p_i: uses the dedicated *_times_p forms so that every term
   stays posynomial (paper Section 2, condition 2). *)
let node_area_expr params g i =
  let nd = G.node g i in
  let tr = P.transfer params in
  let recvs =
    List.map
      (fun (e : G.edge) ->
        T.receive_times_p_expr tr ~kind:e.kind ~bytes:e.bytes ~vi:e.src ~vj:e.dst)
      (G.preds g i)
  in
  let sends =
    List.map
      (fun (e : G.edge) ->
        T.send_times_p_expr tr ~kind:e.kind ~bytes:e.bytes ~vi:e.src ~vj:e.dst)
      (G.succs g i)
  in
  let proc =
    Costmodel.Processing.expr_times_p (P.processing params nd.kernel) ~var:i
  in
  E.sum (recvs @ (proc :: sends))

let average_expr params g ~procs =
  check params g ~procs;
  let n = G.num_nodes g in
  E.scale
    (1.0 /. float_of_int procs)
    (E.sum (List.init n (node_area_expr params g)))

let critical_path_expr params g ~procs =
  check params g ~procs;
  let tr = P.transfer params in
  let n = G.num_nodes g in
  let weight = Array.init n (node_weight_expr params g) in
  let y = Array.make n None in
  List.iter
    (fun i ->
      let arrivals =
        List.map
          (fun (e : G.edge) ->
            let d =
              T.network_expr tr ~kind:e.kind ~bytes:e.bytes ~vi:e.src ~vj:e.dst
            in
            E.add (Option.get y.(e.src)) d)
          (G.preds g i)
      in
      let start = match arrivals with [] -> E.const 0.0 | _ -> E.max_ arrivals in
      y.(i) <- Some (E.add start weight.(i)))
    (Mdg.Analysis.topological_order g);
  Option.get y.(G.stop_node g)

let objective params g ~procs =
  E.max_ [ average_expr params g ~procs; critical_path_expr params g ~procs ]

let solve ?options ?(engine = `Tape) ?obs ?x0 params g ~procs =
  check params g ~procs;
  let n = G.num_nodes g in
  let avg = average_expr params g ~procs in
  let cp = critical_path_expr params g ~procs in
  let obj = E.max_ [ avg; cp ] in
  let lo = Numeric.Vec.create n 0.0 in
  let hi = Numeric.Vec.create n (log (float_of_int procs)) in
  (* Compile the objective to a flat tape once and drive both the
     solve and the exact Φ evaluation through it; [`Reference] keeps
     the DAG-walking path callable for consistency checks. *)
  let solver_engine, eval_obj, branches =
    match engine with
    | `Tape ->
        let c = Convex.Solver.compile ?obs obj in
        ( Convex.Solver.Precompiled c,
          (fun x -> Convex.Solver.eval_compiled c x),
          fun () -> Convex.Solver.compiled_branches c )
    | `Precompiled c ->
        (* A tape-cache hit: the caller compiled (or retrieved) the
           tape for exactly this (params, graph, procs) problem. *)
        ( Convex.Solver.Precompiled c,
          (fun x -> Convex.Solver.eval_compiled c x),
          fun () -> Convex.Solver.compiled_branches c )
    | `Reference ->
        (Convex.Solver.Reference, (fun x -> E.eval obj x), fun () -> [||])
  in
  let solver =
    Convex.Solver.solve ?options ~engine:solver_engine ?obs ?x0
      { objective = obj; lo; hi }
  in
  let alloc = Array.map exp solver.x in
  (* The exact (mu = 0) Φ sweep just computed A_p and C_p on its way
     to the root max; read them off the tape instead of re-walking the
     expression DAG — two DAG evals cost more than the whole tape
     sweep on deep MDGs.  [branches] is in [max_] construction order,
     i.e. [avg] then [cp]; the Reference engine (and a root collapsed
     by simplification) falls back to the DAG walk. *)
  let phi = eval_obj solver.x in
  let average, critical_path =
    match branches () with
    | [| a; c |] -> (a, c)
    | _ -> (E.eval avg solver.x, E.eval cp solver.x)
  in
  { alloc; phi; average; critical_path; solver }

let evaluate params g ~procs ~alloc =
  check params g ~procs;
  if Array.length alloc <> G.num_nodes g then
    invalid_arg "Allocation.evaluate: allocation length mismatch";
  Array.iter
    (fun p ->
      if p < 1.0 || p > float_of_int procs +. 1e-9 then
        invalid_arg "Allocation.evaluate: allocation outside [1, procs]")
    alloc;
  let x = Array.map log alloc in
  E.eval (objective params g ~procs) x
