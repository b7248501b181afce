type kernel =
  | Matrix_init of int
  | Matrix_add of int
  | Matrix_multiply of int
  | Synthetic of { alpha : float; tau : float }
  | Dummy

type transfer_kind = Oned | Twod

type node = { id : int; label : string; kernel : kernel }

type edge = { src : int; dst : int; bytes : float; kind : transfer_kind }

type t = {
  nodes : node array;
  edges : edge list;
  preds : edge list array;
  succs : edge list array;
}

type builder = {
  mutable b_nodes : node list;  (* reverse order *)
  mutable b_edges : edge list;
  mutable b_count : int;
  pairs : (int * int, unit) Hashtbl.t;
}

let create_builder () =
  { b_nodes = []; b_edges = []; b_count = 0; pairs = Hashtbl.create 32 }

let add_node b ~label ~kernel =
  (match kernel with
  | Matrix_init n | Matrix_add n | Matrix_multiply n ->
      if n < 1 then invalid_arg "Graph.add_node: matrix size < 1"
  | Synthetic { alpha; tau } ->
      if alpha < 0.0 || alpha > 1.0 || not (Float.is_finite alpha) then
        invalid_arg "Graph.add_node: alpha outside [0,1]";
      if tau < 0.0 || not (Float.is_finite tau) then
        invalid_arg "Graph.add_node: tau negative or not finite"
  | Dummy -> ());
  let id = b.b_count in
  b.b_nodes <- { id; label; kernel } :: b.b_nodes;
  b.b_count <- id + 1;
  id

let add_edge b ~src ~dst ~bytes ~kind =
  if src < 0 || src >= b.b_count then invalid_arg "Graph.add_edge: bad src";
  if dst < 0 || dst >= b.b_count then invalid_arg "Graph.add_edge: bad dst";
  if src = dst then invalid_arg "Graph.add_edge: self loop";
  if bytes < 0.0 || not (Float.is_finite bytes) then
    invalid_arg "Graph.add_edge: byte count negative or not finite";
  if Hashtbl.mem b.pairs (src, dst) then
    invalid_arg "Graph.add_edge: duplicate edge";
  Hashtbl.add b.pairs (src, dst) ();
  b.b_edges <- { src; dst; bytes; kind } :: b.b_edges

(* Kahn's algorithm; raises on cycles. *)
let check_acyclic ~n ~edges =
  let indeg = Array.make n 0 in
  List.iter (fun e -> indeg.(e.dst) <- indeg.(e.dst) + 1) edges;
  let out = Array.make n [] in
  List.iter (fun e -> out.(e.src) <- e.dst :: out.(e.src)) edges;
  let q = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i q) indeg;
  let visited = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    incr visited;
    List.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v q)
      out.(u)
  done;
  if !visited <> n then invalid_arg "Graph.build: edge relation has a cycle"

let of_nodes_edges nodes edges =
  let n = Array.length nodes in
  check_acyclic ~n ~edges;
  let preds = Array.make n [] in
  let succs = Array.make n [] in
  (* Keep deterministic order: edges sorted by (src, dst). *)
  let edges =
    List.sort (fun a b -> compare (a.src, a.dst) (b.src, b.dst)) edges
  in
  List.iter
    (fun e ->
      preds.(e.dst) <- preds.(e.dst) @ [ e ];
      succs.(e.src) <- succs.(e.src) @ [ e ])
    edges;
  { nodes; edges; preds; succs }

let build b =
  let nodes = Array.of_list (List.rev b.b_nodes) in
  if Array.length nodes = 0 then invalid_arg "Graph.build: empty graph";
  of_nodes_edges nodes b.b_edges

let num_nodes g = Array.length g.nodes

let nodes g = g.nodes

let node g i =
  if i < 0 || i >= num_nodes g then invalid_arg "Graph.node: bad index";
  g.nodes.(i)

let edges g = g.edges

let preds g i =
  if i < 0 || i >= num_nodes g then invalid_arg "Graph.preds: bad index";
  g.preds.(i)

let succs g i =
  if i < 0 || i >= num_nodes g then invalid_arg "Graph.succs: bad index";
  g.succs.(i)

let edge_between g ~src ~dst = List.find_opt (fun e -> e.dst = dst) g.succs.(src)

let sources g =
  Array.to_list g.nodes
  |> List.filter_map (fun nd -> if g.preds.(nd.id) = [] then Some nd.id else None)

let sinks g =
  Array.to_list g.nodes
  |> List.filter_map (fun nd -> if g.succs.(nd.id) = [] then Some nd.id else None)

let is_normalised g =
  match (sources g, sinks g) with
  | [ s ], [ t ] -> s <> t
  | _ -> false

let normalise g =
  if is_normalised g then g
  else begin
    let n = num_nodes g in
    let srcs = sources g in
    let snks = sinks g in
    let single_node = num_nodes g = 1 in
    let nodes = Array.to_list g.nodes in
    let extra = ref [] in
    let next = ref n in
    let edges = ref g.edges in
    let fresh label =
      let id = !next in
      incr next;
      extra := { id; label; kernel = Dummy } :: !extra;
      id
    in
    (match srcs with
    | [ _ ] when not single_node -> ()
    | _ ->
        let start = fresh "START" in
        List.iter
          (fun s ->
            edges := { src = start; dst = s; bytes = 0.0; kind = Oned } :: !edges)
          srcs);
    (match snks with
    | [ _ ] when not single_node -> ()
    | _ ->
        let stop = fresh "STOP" in
        List.iter
          (fun s ->
            edges := { src = s; dst = stop; bytes = 0.0; kind = Oned } :: !edges)
          snks);
    let all = Array.of_list (nodes @ List.rev !extra) in
    of_nodes_edges all !edges
  end

let start_node g =
  match sources g with
  | [ s ] -> s
  | _ -> invalid_arg "Graph.start_node: graph not normalised"

let stop_node g =
  match sinks g with
  | [ s ] -> s
  | _ -> invalid_arg "Graph.stop_node: graph not normalised"

let hash_kernel h (k : kernel) =
  let module F = Numeric.Fnv in
  match k with
  | Matrix_init n -> F.int (F.byte h 1) n
  | Matrix_add n -> F.int (F.byte h 2) n
  | Matrix_multiply n -> F.int (F.byte h 3) n
  | Synthetic { alpha; tau } -> F.float (F.float (F.byte h 4) alpha) tau
  | Dummy -> F.byte h 5

(* A digest of the structure: node kernels (in id order) and the edge
   relation with its transfer payloads.  Labels are excluded — they
   never enter the cost model.  A digest can collide, so it only tells
   workloads apart where a collision is harmless. *)
let structural_hash g =
  let module F = Numeric.Fnv in
  let h = F.int F.seed (num_nodes g) in
  let h = Array.fold_left (fun h nd -> hash_kernel h nd.kernel) h g.nodes in
  List.fold_left
    (fun h e ->
      let h = F.int (F.int h e.src) e.dst in
      let h = F.float h e.bytes in
      F.byte h (match e.kind with Oned -> 1 | Twod -> 2))
    h g.edges

(* A kernel's exact form: a tag, then matrix sizes as unsigned LEB128
   varints or floats as their 8-byte bit patterns.  The encoding is
   prefix-free, so fields appended after a kernel stay unambiguous. *)
let rec add_uint b n =
  if n land lnot 0x7f = 0 then Buffer.add_uint8 b n
  else (
    Buffer.add_uint8 b (0x80 lor (n land 0x7f));
    add_uint b (n lsr 7))

let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)

let add_kernel_key b (k : kernel) =
  match k with
  | Matrix_init n ->
      Buffer.add_uint8 b 1;
      add_uint b n
  | Matrix_add n ->
      Buffer.add_uint8 b 2;
      add_uint b n
  | Matrix_multiply n ->
      Buffer.add_uint8 b 3;
      add_uint b n
  | Synthetic { alpha; tau } ->
      Buffer.add_uint8 b 4;
      add_float b alpha;
      add_float b tau
  | Dummy -> Buffer.add_uint8 b 5

let kernel_flops = function
  | Matrix_init n -> float_of_int (n * n)
  | Matrix_add n -> float_of_int (n * n)
  | Matrix_multiply n ->
      let nf = float_of_int n in
      2.0 *. nf *. nf *. nf
  | Synthetic _ | Dummy -> 0.0

let kernel_bytes = function
  | Matrix_init n | Matrix_add n | Matrix_multiply n -> float_of_int (8 * n * n)
  | Synthetic _ | Dummy -> 0.0

let pp_kernel fmt = function
  | Matrix_init n -> Format.fprintf fmt "init(%dx%d)" n n
  | Matrix_add n -> Format.fprintf fmt "add(%dx%d)" n n
  | Matrix_multiply n -> Format.fprintf fmt "mul(%dx%d)" n n
  | Synthetic { alpha; tau } ->
      Format.fprintf fmt "synthetic(alpha=%g, tau=%g)" alpha tau
  | Dummy -> Format.fprintf fmt "dummy"

let pp_transfer_kind fmt = function
  | Oned -> Format.fprintf fmt "1D"
  | Twod -> Format.fprintf fmt "2D"

let pp fmt g =
  Format.fprintf fmt "@[<v>MDG with %d nodes, %d edges@," (num_nodes g)
    (List.length g.edges);
  Array.iter
    (fun nd ->
      Format.fprintf fmt "  [%d] %s : %a@," nd.id nd.label pp_kernel nd.kernel)
    g.nodes;
  List.iter
    (fun e ->
      Format.fprintf fmt "  %d -> %d (%g bytes, %a)@," e.src e.dst e.bytes
        pp_transfer_kind e.kind)
    g.edges;
  Format.fprintf fmt "@]"
