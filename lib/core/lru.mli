(** Bounded least-recently-used map.

    A hash table paired with an intrusive recency list: {!find} and
    {!set} move the binding to the front, and inserting past the
    capacity evicts the least recently used binding.  All operations
    are O(1) expected.  Not thread-safe — callers that share an
    instance across domains (e.g. {!Plan_cache}) must hold their own
    lock. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create cap] holds at most [cap] bindings.  Raises
    [Invalid_argument] when [cap < 1]. *)

val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup that marks the binding as most recently used. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Lookup without touching the recency order. *)

val set : ('k, 'v) t -> 'k -> 'v -> ('k * 'v) option
(** Insert or replace, marking the binding most recently used.  When an
    insert would exceed the capacity the least recently used binding is
    evicted and returned. *)

val to_list : ('k, 'v) t -> ('k * 'v) list
(** Bindings from most to least recently used. *)
