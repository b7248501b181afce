type key = { graph_hash : int64; fingerprint : int64; procs : int }

type stats = {
  tape_hits : int;
  tape_misses : int;
  warm_hits : int;
  warm_shape_hits : int;
  warm_procs_hits : int;
  warm_misses : int;
  coalesce_leaders : int;
  coalesce_hits : int;
  warm_entries : int;
}

type warm_hit = Exact of Allocation.result | Seed of Numeric.Vec.t

(* One in-flight solve.  Waiters block on [fcond] (paired with the
   cache's global mutex) until the leader publishes; the record
   outlives its table entry, so a waiter that was registered before
   the leader finished still observes the outcome after removal. *)
type flight = {
  fcond : Condition.t;
  mutable fstate : flight_state;
  mutable fwaiters : int;
}

and flight_state =
  | Pending
  | Done of Allocation.result
  | Failed of exn

type t = {
  lock : Mutex.t;
  warm_exact : (key, Allocation.result) Lru.t;
  inflight : (key, flight) Hashtbl.t;
  (* Latest optimum per graph shape, per machine size: the nested
     [procs] map is what makes a different-[procs] request on a known
     shape answerable (by rescaling the nearest stored optimum) rather
     than a cold miss.  Bounded like the other tables — LRU over
     shapes, and each shape's [procs] map capped at
     [max_procs_per_shape] (evicting the size farthest in log ratio
     from the newcomer) — so a long-running server with a diverse
     request mix cannot grow it without limit. *)
  warm_shape : (int64, (int, Numeric.Vec.t) Hashtbl.t) Lru.t;
  mutable warm_hits : int;
  mutable warm_shape_hits : int;
  mutable warm_procs_hits : int;
  mutable warm_misses : int;
  mutable coalesce_leaders : int;
  mutable coalesce_hits : int;
}

(* Machine sizes are powers of two in practice, so a handful of
   per-shape entries already spans the realistic [procs] range. *)
let max_procs_per_shape = 8

let create ?(max_warm = 512) ?(max_shapes = 256) () =
  if max_warm < 1 || max_shapes < 1 then
    invalid_arg "Plan_cache.create: bounds must be >= 1";
  {
    lock = Mutex.create ();
    warm_exact = Lru.create max_warm;
    warm_shape = Lru.create max_shapes;
    inflight = Hashtbl.create 16;
    warm_hits = 0;
    warm_shape_hits = 0;
    warm_procs_hits = 0;
    warm_misses = 0;
    coalesce_leaders = 0;
    coalesce_hits = 0;
  }

let locked t f = Mutex.protect t.lock f

(* Private copies both ways: cached optima must not alias arrays the
   caller (or a concurrent domain) can mutate. *)
let copy_result (r : Allocation.result) =
  {
    r with
    alloc = Array.copy r.alloc;
    solver = { r.solver with x = Array.copy r.solver.x };
  }

(* Rescale an optimum stored for [p] processors to [p'] in log space:
   every allocation is shifted by log(p'/p) — the same share of the new
   machine — then clamped into the new box [0, log p'].  A directional
   heuristic only; the caller still gates the seed through the solver's
   warm-start probe. *)
let rescale_seed x ~from_procs ~to_procs =
  let shift = log (float_of_int to_procs /. float_of_int from_procs) in
  let hi = log (float_of_int to_procs) in
  Array.map (fun v -> Float.min hi (Float.max 0.0 (v +. shift))) x

let warm t key =
  locked t (fun () ->
      match Lru.find t.warm_exact key with
      | Some r ->
          t.warm_hits <- t.warm_hits + 1;
          Some (Exact (copy_result r))
      | None -> (
          match Lru.find t.warm_shape key.graph_hash with
          | None ->
              t.warm_misses <- t.warm_misses + 1;
              None
          | Some by_procs -> (
              match Hashtbl.find_opt by_procs key.procs with
              | Some x ->
                  t.warm_shape_hits <- t.warm_shape_hits + 1;
                  Some (Seed (Array.copy x))
              | None ->
                  (* Same shape at a different machine size: seed from
                     the stored optimum with the nearest procs ratio
                     (ties towards the larger machine). *)
                  let best =
                    Hashtbl.fold
                      (fun p x acc ->
                        let d =
                          Float.abs
                            (log (float_of_int key.procs /. float_of_int p))
                        in
                        match acc with
                        | Some (dp, p', _) when d > dp || (d = dp && p < p')
                          ->
                            acc
                        | _ -> Some (d, p, x))
                      by_procs None
                  in
                  (match best with
                  | Some (_, p, x) ->
                      t.warm_procs_hits <- t.warm_procs_hits + 1;
                      Some
                        (Seed
                           (rescale_seed x ~from_procs:p ~to_procs:key.procs))
                  | None ->
                      t.warm_misses <- t.warm_misses + 1;
                      None))))

let store_warm t key result =
  let result = copy_result result in
  locked t (fun () ->
      ignore (Lru.set t.warm_exact key result : (key * _) option);
      (* The shape seed may outlive its exact entry; that is fine — it
         is only ever a starting point. *)
      let by_procs =
        match Lru.find t.warm_shape key.graph_hash with
        | Some h -> h
        | None ->
            let h = Hashtbl.create 4 in
            ignore (Lru.set t.warm_shape key.graph_hash h : (int64 * _) option);
            h
      in
      (if (not (Hashtbl.mem by_procs key.procs))
          && Hashtbl.length by_procs >= max_procs_per_shape
       then
         (* Make room by dropping the machine size least likely to seed
            a request near the newcomer: the farthest in log ratio. *)
         let victim =
           Hashtbl.fold
             (fun p _ acc ->
               let d =
                 Float.abs (log (float_of_int key.procs /. float_of_int p))
               in
               match acc with
               | Some (dp, _) when dp >= d -> acc
               | _ -> Some (d, p))
             by_procs None
         in
         match victim with
         | Some (_, p) -> Hashtbl.remove by_procs p
         | None -> ());
      Hashtbl.replace by_procs key.procs result.solver.x)

(* ------------------------------------------------------------------ *)
(* Singleflight coalescing                                             *)
(* ------------------------------------------------------------------ *)

let coalesce t key ~solve =
  let role =
    locked t (fun () ->
        match Hashtbl.find_opt t.inflight key with
        | Some f ->
            f.fwaiters <- f.fwaiters + 1;
            `Follow f
        | None -> (
            match Lru.find t.warm_exact key with
            | Some r ->
                (* A flight for [key] was stored and published between
                   the caller's [warm] miss and this lock: serve its
                   result instead of solving the key a second time. *)
                t.coalesce_hits <- t.coalesce_hits + 1;
                `Served (copy_result r)
            | None ->
                let f =
                  {
                    fcond = Condition.create ();
                    fstate = Pending;
                    fwaiters = 0;
                  }
                in
                Hashtbl.replace t.inflight key f;
                t.coalesce_leaders <- t.coalesce_leaders + 1;
                `Lead f))
  in
  match role with
  | `Served r -> (r, `Follower)
  | `Lead f -> (
      (* The solve runs outside the lock: it re-enters the cache
         ([store_warm]) and can take hundreds of milliseconds.
         Publication removes the flight first, so a request arriving
         after completion starts fresh (and will find the stored warm
         entry instead of a stale flight). *)
      let publish state =
        locked t (fun () ->
            f.fstate <- state;
            Hashtbl.remove t.inflight key;
            Condition.broadcast f.fcond)
      in
      match solve () with
      | r ->
          publish (Done (copy_result r));
          (r, `Leader)
      | exception exn ->
          publish (Failed exn);
          raise exn)
  | `Follow f -> (
      let outcome =
        locked t (fun () ->
            let rec wait () =
              match f.fstate with
              | Pending ->
                  Condition.wait f.fcond t.lock;
                  wait ()
              | Done r ->
                  t.coalesce_hits <- t.coalesce_hits + 1;
                  Done (copy_result r)
              | Failed _ as s -> s
            in
            wait ())
      in
      match outcome with
      | Done r -> (r, `Follower)
      | Failed exn -> raise exn
      | Pending -> assert false)

let waiting t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.inflight key with
      | Some f -> f.fwaiters
      | None -> 0)

let stats t =
  locked t (fun () ->
      {
        (* Every tape emission happens in a coalesce leader's solve,
           and only exact hits are served without one. *)
        tape_hits = t.warm_hits;
        tape_misses = t.coalesce_leaders;
        warm_hits = t.warm_hits;
        warm_shape_hits = t.warm_shape_hits;
        warm_procs_hits = t.warm_procs_hits;
        warm_misses = t.warm_misses;
        coalesce_leaders = t.coalesce_leaders;
        coalesce_hits = t.coalesce_hits;
        warm_entries = Lru.length t.warm_exact;
      })
