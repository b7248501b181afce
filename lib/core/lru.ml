(* Bounded least-recently-used map: a hash table over an intrusive
   doubly-linked recency list.  Every operation is O(1) expected; not
   thread-safe (callers such as {!Plan_cache} hold their own lock). *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;  (* towards most recent *)
  mutable next : ('k, 'v) node option;  (* towards least recent *)
}

type ('k, 'v) t = {
  cap : int;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (* most recently used *)
  mutable tail : ('k, 'v) node option;  (* least recently used *)
}

let create cap =
  if cap < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  { cap; tbl = Hashtbl.create (Int.min cap 64); head = None; tail = None }

let length t = Hashtbl.length t.tbl

(* Splice [n] out of the recency list (it must be linked). *)
let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  (* Compare payloads physically: [t.head != Some n] would allocate a
     fresh [Some] block and so never short-circuit. *)
  match t.head with
  | Some h when h == n -> ()
  | _ ->
      unlink t n;
      push_front t n

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> None
  | Some n ->
      touch t n;
      Some n.value

let peek t k = Option.map (fun n -> n.value) (Hashtbl.find_opt t.tbl k)

let set t k v =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
      n.value <- v;
      touch t n;
      None
  | None ->
      let evicted =
        if Hashtbl.length t.tbl >= t.cap then
          match t.tail with
          | Some lru ->
              unlink t lru;
              Hashtbl.remove t.tbl lru.key;
              Some (lru.key, lru.value)
          | None -> None
        else None
      in
      let n = { key = k; value = v; prev = None; next = None } in
      push_front t n;
      Hashtbl.add t.tbl k n;
      evicted

let to_list t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some n -> walk ((n.key, n.value) :: acc) n.next
  in
  walk [] t.head
