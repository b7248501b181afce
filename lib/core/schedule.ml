type entry = {
  node : int;
  procs : int array;
  start : float;
  finish : float;
}

type t = {
  machine_procs : int;
  by_node : (int, entry) Hashtbl.t;
  ordered : entry list;
}

(* One pass over [procs].  A decrease anywhere means "not sorted", and
   that message wins; otherwise the first id, in array order, that is
   outside the machine or repeats its predecessor decides the message
   (outside wins at the same id).  Strictly increasing ids are sorted
   and distinct. *)
let check_procs ~machine_procs e =
  let procs = e.procs in
  let bad = ref (-1) in
  for k = 0 to Array.length procs - 1 do
    let p = procs.(k) in
    if k > 0 && p < procs.(k - 1) then
      invalid_arg
        (Printf.sprintf "Schedule.make: node %d processors not sorted" e.node);
    if
      !bad < 0
      && (p < 0 || p >= machine_procs || (k > 0 && p = procs.(k - 1)))
    then bad := k
  done;
  if !bad >= 0 then begin
    let p = procs.(!bad) in
    if p < 0 || p >= machine_procs then
      invalid_arg
        (Printf.sprintf "Schedule.make: node %d uses processor %d outside machine"
           e.node p)
    else
      invalid_arg
        (Printf.sprintf "Schedule.make: node %d lists processor %d twice" e.node p)
  end

let make ~machine_procs entries =
  if machine_procs < 1 then invalid_arg "Schedule.make: machine_procs < 1";
  let by_node = Hashtbl.create (List.length entries) in
  List.iter
    (fun e ->
      if Hashtbl.mem by_node e.node then
        invalid_arg
          (Printf.sprintf "Schedule.make: node %d scheduled twice" e.node);
      if Array.length e.procs = 0 then
        invalid_arg (Printf.sprintf "Schedule.make: node %d has no processors" e.node);
      check_procs ~machine_procs e;
      if
        e.start < 0.0 || e.finish < e.start
        || not (Float.is_finite e.start && Float.is_finite e.finish)
      then
        invalid_arg (Printf.sprintf "Schedule.make: node %d has a bad interval" e.node);
      Hashtbl.add by_node e.node e)
    entries;
  let ordered =
    List.sort
      (fun a b ->
        match Float.compare a.start b.start with
        | 0 -> Int.compare a.node b.node
        | c -> c)
      entries
  in
  { machine_procs; by_node; ordered }

let machine_procs t = t.machine_procs

let entries t = t.ordered

let entry t node =
  match Hashtbl.find_opt t.by_node node with
  | Some e -> e
  | None -> raise Not_found

let makespan t = List.fold_left (fun acc e -> Float.max acc e.finish) 0.0 t.ordered

let num_entries t = List.length t.ordered

let allocation t node = Array.length (entry t node).procs

let busy_area t =
  List.fold_left
    (fun acc e -> acc +. ((e.finish -. e.start) *. float_of_int (Array.length e.procs)))
    0.0 t.ordered

let overlap a b = a.start < b.finish && b.start < a.finish

let shares_proc a b =
  Array.exists (fun p -> Array.exists (( = ) p) b.procs) a.procs

let validate params g t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let n = Mdg.Graph.num_nodes g in
  for i = 0 to n - 1 do
    if not (Hashtbl.mem t.by_node i) then err "node %d is not scheduled" i
  done;
  if !errors = [] then begin
    let alloc i = float_of_int (allocation t i) in
    (* Processor exclusivity: zero-duration entries cannot conflict. *)
    let es = Array.of_list t.ordered in
    Array.iteri
      (fun k a ->
        for l = k + 1 to Array.length es - 1 do
          let b = es.(l) in
          if overlap a b && shares_proc a b then
            err "nodes %d and %d overlap on a shared processor" a.node b.node
        done)
      es;
    (* Precedence with network delays. *)
    List.iter
      (fun (e : Mdg.Graph.edge) ->
        let src = entry t e.src and dst = entry t e.dst in
        let delay = Costmodel.Weights.edge_weight params ~alloc e in
        let eps = 1e-9 *. (1.0 +. Float.abs src.finish) in
        if dst.start +. eps < src.finish +. delay then
          err "edge %d->%d violated: dst starts %.9g before %.9g" e.src e.dst
            dst.start (src.finish +. delay))
      (Mdg.Graph.edges g);
    (* Durations match the model's node weights. *)
    for i = 0 to n - 1 do
      let e = entry t i in
      let w = Costmodel.Weights.node_weight params g ~alloc i in
      let d = e.finish -. e.start in
      if Float.abs (d -. w) > 1e-9 *. (1.0 +. w) then
        err "node %d has duration %.9g but model weight %.9g" i d w
    done
  end;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let pp fmt t =
  Format.fprintf fmt "@[<v>schedule on %d processors, makespan %.6f s@,"
    t.machine_procs (makespan t);
  List.iter
    (fun e ->
      Format.fprintf fmt "  node %2d on %2d procs [%s] : %.6f .. %.6f@," e.node
        (Array.length e.procs)
        (String.concat ","
           (Array.to_list (Array.map string_of_int e.procs)))
        e.start e.finish)
    t.ordered;
  Format.fprintf fmt "@]"
