(** 64-bit FNV-1a hashing, used for {!Mdg.Graph.structural_hash}.

    A tiny incremental hasher: fold values into a running [t] and read
    the digest out as an [int64] (or hex string).  Deterministic across
    runs and platforms — digests computed by one process are
    meaningful to another, unlike [Hashtbl.hash] of boxed floats.

    Collisions are rare among random inputs (the plan-cache property
    suite finds none across 10k random MDGs) but can be crafted: a
    birthday search of about 4e9 evaluations finds two inputs with
    one digest.  So a digest may pick a bucket or draw distinct
    workloads, but it never identifies a request: the plan cache
    compares exact key bytes. *)

type t = int64

val seed : t
(** The FNV-1a offset basis. *)

val byte : t -> int -> t
(** Fold one byte (low 8 bits of the argument). *)

val int : t -> int -> t
(** Fold a native int (as 8 little-endian bytes). *)

val int64 : t -> int64 -> t

val float : t -> float -> t
(** Folds the IEEE-754 bit pattern, so [-0.0] and [0.0] differ and
    NaNs hash by representation. *)

val string : t -> string -> t
(** Folds the length and then the bytes, so concatenation boundaries
    are unambiguous. *)

val to_hex : t -> string
(** 16-character lowercase hex digest. *)
