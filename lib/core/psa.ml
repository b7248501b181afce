module G = Mdg.Graph
module Pow2 = Numeric.Pow2

type pb_choice = Auto | Fixed of int | Unbounded

type rounding = Nearest | Floor | Ceil

type priority = Lowest_est | Fifo

type options = {
  pb : pb_choice;
  rounding : rounding;
  priority : priority;
}

let default_options = { pb = Auto; rounding = Nearest; priority = Lowest_est }

type result = {
  schedule : Schedule.t;
  rounded_alloc : int array;
  pb : int;
  t_psa : float;
}

let round_allocation ~rounding ~procs alloc =
  if procs < 1 then invalid_arg "Psa.round_allocation: procs < 1";
  let cap = Pow2.floor_pow2 procs in
  Array.map
    (fun p ->
      if p < 1.0 || not (Float.is_finite p) then
        invalid_arg "Psa.round_allocation: allocation entry < 1";
      let rounded =
        match rounding with
        | Nearest -> Pow2.nearest_pow2 p
        | Floor -> Pow2.floor_pow2 (int_of_float (Float.floor p))
        | Ceil -> Pow2.ceil_pow2 (int_of_float (Float.ceil p))
      in
      Int.min rounded cap)
    alloc

let apply_bound ~pb alloc =
  if not (Pow2.is_pow2 pb) then
    invalid_arg "Psa.apply_bound: PB must be a power of two";
  Array.map (fun p -> Int.min p pb) alloc

(* Ready pool with deterministic ordering: (priority key, insertion
   seq, node), compared field by field. *)
type ready = { key : float; seq : int; node : int }

module Ready = Set.Make (struct
  type t = ready

  let compare a b =
    match Float.compare a.key b.key with
    | 0 -> (
        match Int.compare a.seq b.seq with
        | 0 -> Int.compare a.node b.node
        | c -> c)
    | c -> c
end)

(* List scheduling.  [avail.(p)] is the time processor [p] becomes
   free.  For a node needing k processors we take the k earliest-free
   processors (ties by lowest id); PST is the k-th smallest
   availability.

   [order] holds every processor id sorted by (avail, id), an
   invariant kept across nodes: a node takes its k processors from the
   front, they all become free at the node's finish time, and one
   merge puts them back, in ascending id, among the untouched rest. *)
let list_schedule ~obs ~priority ~procs ~node_weight ~edge_weight ~alloc g =
  let n = G.num_nodes g in
  let avail = Array.make procs 0.0 in
  let order = Array.init procs (fun p -> p) in
  let finish = Array.make n 0.0 in
  let scheduled = Array.make n false in
  let remaining_preds = Array.make n 0 in
  for i = 0 to n - 1 do
    remaining_preds.(i) <- List.length (G.preds g i)
  done;
  let est = Array.make n 0.0 in
  let ready = ref Ready.empty in
  let seq = ref 0 in
  let push node =
    let key =
      match priority with
      | Lowest_est -> est.(node)
      | Fifo -> float_of_int !seq
    in
    ready := Ready.add { key; seq = !seq; node } !ready;
    incr seq
  in
  push (G.start_node g);
  let entries = ref [] in
  let continue = ref true in
  while !continue do
    match Ready.min_elt_opt !ready with
    | None -> continue := false
    | Some ({ node; _ } as elt) ->
        ready := Ready.remove elt !ready;
        let k = Int.min alloc.(node) procs in
        let chosen = Array.sub order 0 k in
        Array.sort Int.compare chosen;
        let pst =
          Array.fold_left (fun acc p -> Float.max acc avail.(p)) 0.0 chosen
        in
        let start = Float.max est.(node) pst in
        let w = node_weight node in
        let fin = start +. w in
        Array.iter (fun p -> avail.(p) <- fin) chosen;
        (* Merge [chosen] (all free at [fin], ascending id) into the
           tail [order.(k..)], writing from the front.  The write index
           never passes the tail's read index, and once [chosen] is
           used up the rest of the tail is already in place. *)
        let i = ref 0 and j = ref k in
        while !i < k do
          let c = chosen.(!i) in
          if
            !j < procs
            &&
            let t = order.(!j) in
            avail.(t) < fin || (avail.(t) = fin && t < c)
          then begin
            order.(!i + !j - k) <- order.(!j);
            incr j
          end
          else begin
            order.(!i + !j - k) <- c;
            incr i
          end
        done;
        finish.(node) <- fin;
        scheduled.(node) <- true;
        if Obs.enabled obs then
          Obs.instant obs ~cat:"psa" "psa.place"
            ~args:
              [
                ("node", Obs.Events.Int node);
                ("procs", Obs.Events.Int k);
                ("est", Obs.Events.Float est.(node));
                ("pst", Obs.Events.Float pst);
                ("start", Obs.Events.Float start);
                ("finish", Obs.Events.Float fin);
              ];
        entries :=
          { Schedule.node; procs = chosen; start; finish = fin } :: !entries;
        (* Release successors whose predecessors are now all done. *)
        List.iter
          (fun (e : G.edge) ->
            remaining_preds.(e.dst) <- remaining_preds.(e.dst) - 1;
            est.(e.dst) <-
              Float.max est.(e.dst) (finish.(e.src) +. edge_weight e);
            if remaining_preds.(e.dst) = 0 then push e.dst)
          (G.succs g node)
  done;
  if Array.exists not scheduled then
    invalid_arg "Psa.list_schedule: graph not fully scheduled (not normalised?)";
  Schedule.make ~machine_procs:procs (List.rev !entries)

let schedule ?(options = default_options) ?(obs = Obs.null) params g ~procs
    ~alloc =
  if not (G.is_normalised g) then
    invalid_arg "Psa.schedule: graph must be normalised";
  if Array.length alloc <> G.num_nodes g then
    invalid_arg "Psa.schedule: allocation length mismatch";
  let pb =
    match options.pb with
    | Auto -> Bounds.optimal_pb ~procs
    | Fixed pb ->
        if not (Pow2.is_pow2 pb) || pb > procs then
          invalid_arg "Psa.schedule: fixed PB must be a power of two <= procs";
        pb
    | Unbounded -> Pow2.floor_pow2 procs
  in
  let rounded = round_allocation ~rounding:options.rounding ~procs alloc in
  let bounded = apply_bound ~pb rounded in
  (* Per-node rounding trail: the convex program's continuous p_i, its
     power-of-two rounding, and the PB clamp actually applied. *)
  if Obs.enabled obs then
    Array.iteri
      (fun i p ->
        Obs.instant obs ~cat:"psa" "psa.round"
          ~args:
            [
              ("node", Obs.Events.Int i);
              ("continuous", Obs.Events.Float p);
              ("pow2", Obs.Events.Int rounded.(i));
              ("clamped", Obs.Events.Int bounded.(i));
              ("pb", Obs.Events.Int pb);
            ])
      alloc;
  let allocf i = float_of_int bounded.(i) in
  let node_weight i = Costmodel.Weights.node_weight params g ~alloc:allocf i in
  let edge_weight e = Costmodel.Weights.edge_weight params ~alloc:allocf e in
  let sched =
    list_schedule ~obs ~priority:options.priority ~procs ~node_weight
      ~edge_weight ~alloc:bounded g
  in
  {
    schedule = sched;
    rounded_alloc = bounded;
    pb;
    t_psa = (Schedule.entry sched (G.stop_node g)).finish;
  }
