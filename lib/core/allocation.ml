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

(* ------------------------------------------------------------------ *)
(* Tape emitter                                                        *)
(* ------------------------------------------------------------------ *)

(* [objective_tape] writes the tape of [objective] straight from the
   graph.  It visits the objective in the order [Tape.compile] visits
   [max_ [average_expr; critical_path_expr]] and applies the same
   rules, so the two tapes are equal array for array:
   - constant summands fold into the enclosing sum's bias, in the same
     addition order, and single-use sums (node areas and weights, the
     transfer sums, arrivals, finish times with out-degree 1) are
     spliced into their parent;
   - a zero-bias sum of one child is that child ({!Convex.Tape.Builder.sum});
   - the scale of a one-port max ([t_ss·max(1, p_j/p_i)] and friends)
     is fused into the max;
   - constant slots are pooled by value ({!Convex.Tape.Builder.const}).
   Graph out-degrees stand in for the DAG's use counts and a per-node
   slot array for its id memo.  A zero-byte edge contributes the
   constant 0, which leaves every bias it is added to unchanged, so it
   is skipped outright. *)

module B = Convex.Tape.Builder

(* A sum under construction: its constant bias and its child slots in
   reverse order, as [Tape.compile] accumulates them. *)
type acc = { mutable bias : float; mutable kids : int list }

let add_const acc v = acc.bias <- acc.bias +. v

let add_kid acc s = acc.kids <- s :: acc.kids

(* Every coefficient the emitter writes for an edge of non-zero size is
   the coefficient of an [Expr.term] in the critical-path DAG, which the
   reference builds first; reject it with that constructor's message so
   the tape and the expression fail alike. *)
let coeff c =
  if not (Float.is_finite c) || c <= 0.0 then
    invalid_arg "Expr.term: coefficient must be positive and finite";
  c

let term1 b c v a = B.term b c [| (v, a) |]

(* A two-variable term, exponents in ascending variable order. *)
let term2 b c v a w e =
  B.term b c (if v < w then [| (v, a); (w, e) |] else [| (w, e); (v, a) |])

(* The Amdahl pair of node [i]: serial [α·τ] and parallel [(1-α)·τ]. *)
let amdahl params g i =
  let pr = P.processing params (G.node g i).kernel in
  (pr.alpha *. pr.tau, (1.0 -. pr.alpha) *. pr.tau)

(* [T_i·p_i] into [acc]: the node's receive area terms (startup
   [t_sr], per byte [t_pr]), its processing area
   [serial·p_i + parallel] and its send area terms ([t_ss], [t_ps]).
   An edge's area is [startup·max(p_src, p_dst) + bytes·per_byte] on a
   1-D edge and [startup·p_src·p_dst + bytes·per_byte] on a 2-D one.
   (Posynomial orders the two processing monomials by coefficient, but
   one is a constant and the other a term, and within one sum the
   position of a constant relative to a term changes neither the
   bias's addition order nor the child order.) *)
let splice_area b (tr : P.transfer) params g acc i =
  let transfer startup per_byte (e : G.edge) =
    if e.bytes > 0.0 then begin
      (match e.kind with
      | Oned ->
          (* Branches are emitted before the max, in order. *)
          let p_src = term1 b 1.0 e.src 1.0 in
          let p_dst = term1 b 1.0 e.dst 1.0 in
          add_kid acc (B.max b startup [ p_src; p_dst ])
      | Twod -> add_kid acc (term2 b (coeff startup) e.src 1.0 e.dst 1.0));
      add_const acc (coeff (e.bytes *. per_byte))
    end
  in
  List.iter (transfer tr.t_sr tr.t_pr) (G.preds g i);
  let serial, parallel = amdahl params g i in
  if serial > 0.0 then add_kid acc (term1 b serial i 1.0);
  if parallel > 0.0 then add_const acc parallel;
  List.iter (transfer tr.t_ss tr.t_ps) (G.succs g i)

(* [T_i] into [acc]: receive terms, processing [serial + parallel/p_i],
   send terms.  An edge to or from [far] costs node i
   [startup·max(1, p_far/p_i) + bytes·per_byte/p_i] on a 1-D edge and
   [startup·p_far + bytes·per_byte/p_i] on a 2-D one. *)
let splice_weight b (tr : P.transfer) params g acc i =
  let transfer startup per_byte ~far (e : G.edge) =
    if e.bytes > 0.0 then begin
      (match e.kind with
      | Oned ->
          let one = B.const b 1.0 in
          let ratio = term2 b 1.0 far 1.0 i (-1.0) in
          add_kid acc (B.max b startup [ one; ratio ])
      | Twod -> add_kid acc (term1 b (coeff startup) far 1.0));
      add_kid acc (term1 b (coeff (e.bytes *. per_byte)) i (-1.0))
    end
  in
  List.iter
    (fun (e : G.edge) -> transfer tr.t_sr tr.t_pr ~far:e.src e)
    (G.preds g i);
  let serial, parallel = amdahl params g i in
  if serial > 0.0 then add_const acc serial;
  if parallel > 0.0 then add_kid acc (term1 b parallel i (-1.0));
  List.iter
    (fun (e : G.edge) -> transfer tr.t_ss tr.t_ps ~far:e.dst e)
    (G.succs g i)

(* A_p: every node area spliced into one sum, then the 1/p scale
   (elided at procs = 1, where [E.scale] returns its argument). *)
let emit_average b tr params g ~procs =
  let acc = { bias = 0.0; kids = [] } in
  for i = 0 to G.num_nodes g - 1 do
    splice_area b tr params g acc i
  done;
  let f = 1.0 /. float_of_int procs in
  match acc.kids with
  | [] -> B.const b (if procs = 1 then acc.bias else f *. acc.bias)
  | kids ->
      let s = B.sum b acc.bias kids in
      if procs = 1 then s else B.scale b f s

(* C_p = y_STOP, y_i = start_i + T_i with start_i the max over arrivals
   [y_m + t^D_mi], walked depth-first from STOP over predecessors. *)
let emit_critical_path b (tr : P.transfer) params g =
  let n = G.num_nodes g in
  (* Variable-free finish times and their values.  T_i is variable-free
     when node i has no parallel part and moves no bytes; it is then
     its serial time.  [Tape.compile] folds y_i = start_i + T_i to
     (0 + start_i) + T_i and a single arrival to (0 + y_m) + 0, and
     those zeros leave a non-negative float unchanged.  A variable-free
     y_m's out-edges move no bytes, so its arrivals carry no network
     delay and are variable-free too. *)
  let state = Bytes.make n '\000' and value = Array.make n 0.0 in
  let weight_const i =
    let serial, parallel = amdahl params g i in
    let quiet (e : G.edge) = e.bytes = 0.0 in
    if parallel = 0.0 && List.for_all quiet (G.preds g i)
       && List.for_all quiet (G.succs g i)
    then Some serial
    else None
  in
  let rec is_const i =
    match Bytes.get state i with
    | '\001' -> true
    | '\002' -> false
    | _ ->
        let r =
          match (weight_const i, G.preds g i) with
          | Some w, [] ->
              value.(i) <- w;
              true
          | Some w, [ e ] when is_const e.src ->
              value.(i) <- value.(e.src) +. w;
              true
          | _ -> false
        in
        Bytes.set state i (if r then '\001' else '\002');
        r
  in
  let slot = Array.make n (-1) in
  (* y_i's summands into [acc]. *)
  let rec splice_y acc i =
    (match G.preds g i with
    | [] -> ()
    | [ e ] -> splice_arrival acc e
    | es -> add_kid acc (B.max b 1.0 (List.map emit_arrival es)));
    splice_weight b tr params g acc i
  (* The arrival y_m + t^D_mi into [acc]: a variable-free y_m folds into
     the bias, a single-use one is spliced, a shared one referenced. *)
  and splice_arrival acc (e : G.edge) =
    let m = e.src in
    if is_const m then add_const acc value.(m)
    else begin
      (match G.succs g m with
      | [ _ ] -> splice_y acc m
      | _ -> add_kid acc (emit_y m));
      if e.bytes <> 0.0 && tr.t_n <> 0.0 then
        let a = match e.kind with Oned -> -0.5 | Twod -> -1.0 in
        add_kid acc (term2 b (coeff (e.bytes *. tr.t_n)) m a e.dst a)
    end
  and emit_y m =
    if slot.(m) < 0 then begin
      let acc = { bias = 0.0; kids = [] } in
      splice_y acc m;
      slot.(m) <- B.sum b acc.bias acc.kids
    end;
    slot.(m)
  and emit_arrival (e : G.edge) =
    if is_const e.src then B.const b value.(e.src)
    else begin
      let acc = { bias = 0.0; kids = [] } in
      splice_arrival acc e;
      B.sum b acc.bias acc.kids
    end
  in
  let stop = G.stop_node g in
  if is_const stop then B.const b value.(stop) else emit_y stop

let objective_tape_unchecked params g ~procs =
  let tr = P.transfer params in
  let b = B.create () in
  let avg = emit_average b tr params g ~procs in
  let cp = emit_critical_path b tr params g in
  B.finish b ~root:(B.max b 1.0 [ avg; cp ])

let objective_tape params g ~procs =
  check params g ~procs;
  objective_tape_unchecked params g ~procs

let solve ?options ?obs ?x0 params g ~procs =
  check params g ~procs;
  let n = G.num_nodes g in
  let lo = Numeric.Vec.create n 0.0 in
  let hi = Numeric.Vec.create n (log (float_of_int procs)) in
  let c =
    Convex.Solver.compile_tape ?obs (fun () ->
        objective_tape_unchecked params g ~procs)
  in
  let solver = Convex.Solver.solve_compiled ?options ?obs ?x0 c ~lo ~hi in
  (* A_p and C_p come off the tape: the exact (mu = 0) Φ sweep computes
     them on its way to the root max, whose branches are [A_p; C_p] in
     that order. *)
  let phi = Convex.Solver.eval_compiled c solver.x in
  let average, critical_path =
    match Convex.Solver.compiled_branches c with
    | [| a; cp |] -> (a, cp)
    | _ -> invalid_arg "Allocation.solve: tape root is not max(A_p, C_p)"
  in
  { alloc = Array.map exp solver.x; phi; average; critical_path; solver }

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
