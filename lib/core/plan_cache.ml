(* The MDG text is the bulk of a key: a depth-3 text runs to 8 kB.
   [consts] holds the rest: the cost constants and [procs]. *)
type key = { text : string; consts : string }

let key params ~text ~procs =
  let b = Buffer.create 64 in
  Costmodel.Params.add_key b params;
  Buffer.add_int64_le b (Int64.of_int procs);
  { text; consts = Buffer.contents b }

type reply_fields = {
  psa_options : Psa.options;
  t_psa : float;
  makespan : float;
  pb : int;
  rounded_alloc : int array;
}

(* Stored entries are never mutated, so a reader may use one outside
   the lock. *)
type entry = { allocation : Allocation.result; reply : reply_fields option }

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

(* The stored texts, weakly: every entry whose text equals one held
   here shares that physical string, so an MDG cached under several
   constant sets or machine sizes costs its text once. *)
module Texts = Weak.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type t = {
  lock : Mutex.t;
  warm_exact : (key, entry) Lru.t;
  texts : Texts.t;
  inflight : (key, flight) Hashtbl.t;
  mutable warm_hits : int;
  mutable warm_misses : int;
  mutable coalesce_leaders : int;
  mutable coalesce_hits : int;
}

let capacity = 512

let create () =
  {
    lock = Mutex.create ();
    warm_exact = Lru.create capacity;
    texts = Texts.create capacity;
    inflight = Hashtbl.create 16;
    warm_hits = 0;
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

let warm t key =
  locked t (fun () ->
      match Lru.find t.warm_exact key with
      | Some e ->
          t.warm_hits <- t.warm_hits + 1;
          Some (copy_result e.allocation)
      | None ->
          t.warm_misses <- t.warm_misses + 1;
          None)

let warm_reply t key ~psa_options =
  locked t (fun () ->
      let fits e =
        match e.reply with
        | Some r -> r.psa_options = psa_options
        | None -> false
      in
      match Lru.find_if t.warm_exact key fits with
      | Some { allocation; reply = Some r } ->
          t.warm_hits <- t.warm_hits + 1;
          Some (allocation, r)
      | Some { reply = None; _ } | None -> None)

let store_warm t key ?reply result =
  let entry =
    {
      allocation = copy_result result;
      reply =
        Option.map
          (fun r -> { r with rounded_alloc = Array.copy r.rounded_alloc })
          reply;
    }
  in
  locked t (fun () ->
      let key = { key with text = Texts.merge t.texts key.text } in
      ignore (Lru.set t.warm_exact key entry : (key * _) option))

let texts t =
  locked t (fun () -> List.map (fun (k, _) -> k.text) (Lru.to_list t.warm_exact))

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
            | Some e ->
                (* A flight for [key] was stored and published between
                   the caller's [warm] miss and this lock: serve its
                   result instead of solving the key a second time. *)
                t.coalesce_hits <- t.coalesce_hits + 1;
                `Served (copy_result e.allocation)
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
        warm_shape_hits = 0;
        warm_procs_hits = 0;
        warm_misses = t.warm_misses;
        coalesce_leaders = t.coalesce_leaders;
        coalesce_hits = t.coalesce_hits;
        warm_entries = Lru.length t.warm_exact;
      })
