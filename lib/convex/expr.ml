module Vec = Numeric.Vec

type node =
  | Const of float
  | Term of { coeff : float; expts : (int * float) array }
  | Sum of t array
  | Max of t array
  | Scale of float * t

and t = { id : int; node : node }

type view =
  | V_const of float
  | V_term of { coeff : float; expts : (int * float) array }
  | V_sum of t array
  | V_max of t array
  | V_scale of float * t

let view e =
  match e.node with
  | Const c -> V_const c
  | Term { coeff; expts } -> V_term { coeff; expts }
  | Sum es -> V_sum es
  | Max es -> V_max es
  | Scale (c, e') -> V_scale (c, e')

let id e = e.id

(* Node ids only need to be unique and increasing along construction
   order; the atomic counter keeps them unique when expressions are
   built concurrently on several domains (the plan server does). *)
let counter = Atomic.make 1

let mk node = { id = Atomic.fetch_and_add counter 1; node }

let const c =
  if not (Float.is_finite c) || c < 0.0 then
    invalid_arg "Expr.const: negative or non-finite constant";
  mk (Const c)

let term ~coeff ~expts =
  if not (Float.is_finite coeff) || coeff <= 0.0 then
    invalid_arg "Expr.term: coefficient must be positive and finite";
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (i, a) ->
      if i < 0 then invalid_arg "Expr.term: negative variable index";
      if not (Float.is_finite a) then invalid_arg "Expr.term: non-finite exponent";
      let cur = Option.value (Hashtbl.find_opt tbl i) ~default:0.0 in
      Hashtbl.replace tbl i (cur +. a))
    expts;
  let expts =
    Hashtbl.fold (fun i a acc -> if a = 0.0 then acc else (i, a) :: acc) tbl []
    |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
    |> Array.of_list
  in
  if Array.length expts = 0 then mk (Const coeff) else mk (Term { coeff; expts })

let sum = function
  | [] -> const 0.0
  | [ e ] -> e
  | es -> mk (Sum (Array.of_list es))

let max_ = function
  | [] -> invalid_arg "Expr.max_: empty list"
  | [ e ] -> e
  | es -> mk (Max (Array.of_list es))

let scale c e =
  if not (Float.is_finite c) || c < 0.0 then
    invalid_arg "Expr.scale: negative or non-finite factor";
  if c = 1.0 then e else mk (Scale (c, e))

let add a b = sum [ a; b ]

let fold_reachable f acc root =
  let seen = Hashtbl.create 64 in
  let rec go acc e =
    if Hashtbl.mem seen e.id then acc
    else begin
      Hashtbl.add seen e.id ();
      let acc = f acc e in
      match e.node with
      | Const _ | Term _ -> acc
      | Scale (_, e') -> go acc e'
      | Sum es | Max es -> Array.fold_left go acc es
    end
  in
  go acc root

let num_nodes root = fold_reachable (fun n _ -> n + 1) 0 root

let max_var root =
  fold_reachable
    (fun m e ->
      match e.node with
      | Term { expts; _ } ->
          Array.fold_left (fun m (i, _) -> Int.max m i) m expts
      | Const _ | Sum _ | Max _ | Scale _ -> m)
    (-1) root

(* Log-sum-exp of [vs] at temperature [mu], with the usual max shift for
   numerical stability.  Exact max when [mu <= 0]. *)
let smooth_max ~mu vs =
  let m = Array.fold_left Float.max neg_infinity vs in
  if mu <= 0.0 || not (Float.is_finite m) then m
  else
    let s = Array.fold_left (fun acc v -> acc +. exp ((v -. m) /. mu)) 0.0 vs in
    m +. (mu *. log s)

let check_vars name e x =
  let mv = max_var e in
  if mv >= Vec.dim x then
    invalid_arg
      (Printf.sprintf "Expr.%s: expression uses variable %d but x has dim %d"
         name mv (Vec.dim x))

let eval ?(mu = 0.0) e x =
  check_vars "eval" e x;
  let memo = Hashtbl.create 64 in
  let rec go e =
    match Hashtbl.find_opt memo e.id with
    | Some v -> v
    | None ->
        let v =
          match e.node with
          | Const c -> c
          | Term { coeff; expts } ->
              let s =
                Array.fold_left (fun acc (i, a) -> acc +. (a *. x.(i))) 0.0 expts
              in
              coeff *. exp s
          | Sum es -> Array.fold_left (fun acc e' -> acc +. go e') 0.0 es
          | Max es -> smooth_max ~mu (Array.map go es)
          | Scale (c, e') -> c *. go e'
        in
        Hashtbl.add memo e.id v;
        v
  in
  go e

let eval_grad ?(mu = 0.0) e x =
  check_vars "eval_grad" e x;
  let n = Vec.dim x in
  let memo : (int, float * Vec.t) Hashtbl.t = Hashtbl.create 64 in
  let rec go e =
    match Hashtbl.find_opt memo e.id with
    | Some vg -> vg
    | None ->
        let vg =
          match e.node with
          | Const c -> (c, Vec.create n 0.0)
          | Term { coeff; expts } ->
              let s =
                Array.fold_left (fun acc (i, a) -> acc +. (a *. x.(i))) 0.0 expts
              in
              let v = coeff *. exp s in
              let g = Vec.create n 0.0 in
              Array.iter (fun (i, a) -> g.(i) <- a *. v) expts;
              (v, g)
          | Sum es ->
              let v = ref 0.0 in
              let g = Vec.create n 0.0 in
              Array.iter
                (fun e' ->
                  let v', g' = go e' in
                  v := !v +. v';
                  Vec.axpy 1.0 g' g)
                es;
              (!v, g)
          | Max es ->
              let vgs = Array.map go es in
              let vs = Array.map fst vgs in
              let v = smooth_max ~mu vs in
              let g = Vec.create n 0.0 in
              if mu <= 0.0 then begin
                (* Subgradient: pick one maximising branch. *)
                let best = ref 0 in
                Array.iteri (fun k vk -> if vk > vs.(!best) then best := k) vs;
                Vec.axpy 1.0 (snd vgs.(!best)) g
              end
              else begin
                let m = Array.fold_left Float.max neg_infinity vs in
                let ws = Array.map (fun vk -> exp ((vk -. m) /. mu)) vs in
                let z = Array.fold_left ( +. ) 0.0 ws in
                Array.iteri (fun k (_, gk) -> Vec.axpy (ws.(k) /. z) gk g) vgs
              end;
              (v, g)
          | Scale (c, e') ->
              let v', g' = go e' in
              (c *. v', Vec.scale c g')
        in
        Hashtbl.add memo e.id vg;
        vg
  in
  go e

let eval_p ?(mu = 0.0) e p =
  Array.iter
    (fun v ->
      if v <= 0.0 then invalid_arg "Expr.eval_p: non-positive processor count")
    p;
  eval ~mu e (Vec.map log p)

let rec pp fmt e =
  match e.node with
  | Const c -> Format.fprintf fmt "%g" c
  | Term { coeff; expts } ->
      Format.fprintf fmt "%g" coeff;
      Array.iter (fun (i, a) -> Format.fprintf fmt "*p%d^%g" i a) expts
  | Sum es -> pp_seq fmt "+" es
  | Max es ->
      Format.fprintf fmt "max";
      pp_seq fmt ", " es
  | Scale (c, e') -> Format.fprintf fmt "%g*(%a)" c pp e'

and pp_seq fmt sep es =
  Format.fprintf fmt "(";
  Array.iteri
    (fun k e ->
      if k > 0 then Format.fprintf fmt "%s" sep;
      pp fmt e)
    es;
  Format.fprintf fmt ")"
