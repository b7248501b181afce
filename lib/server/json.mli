(** A minimal JSON codec for the plan server's wire protocol.

    The repository deliberately depends only on the OCaml toolchain,
    so the newline-delimited JSON protocol ({!Protocol}) carries its
    own self-contained codec: the full JSON value model, a strict
    recursive-descent parser returning [result] (a malformed request
    must produce a typed error reply, never an exception), and a
    compact printer whose output contains no newlines — one value per
    line is the protocol's framing.

    Numbers are [float]s (as in JSON itself); integral values within
    [2^53] print without a fractional part, so OCaml [int] fields
    round-trip exactly through {!int_field}.  Number text is
    [Printf]'s: ["%.0f"] for those integers, ["%.17g"] (which reads
    back to the same double) for every other finite number. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering, single line (strings escape control
    characters). *)

val to_buffer : Buffer.t -> t -> unit
(** Append {!to_string}'s text to the buffer. *)

val max_depth : int
(** [64]: the most arrays and objects {!of_string} accepts nested
    inside one another.  The deepest message of {!Protocol} nests 6. *)

val of_string : string -> (t, string) result
(** Strict parse of exactly one JSON value (surrounding whitespace
    allowed).  [Error] carries a one-line description with a byte
    offset.  A value nested deeper than {!max_depth} is an [Error]
    naming the limit, so the parser's recursion (and the stack of the
    domain that runs it) stays bounded whatever the input. *)

val of_substring : string -> pos:int -> len:int -> (t, string) result
(** {!of_string} of [String.sub s pos len], without the copy: nothing
    in the result shares [s], and byte offsets in errors count from
    [pos].  Raises [Invalid_argument] if the range is not within [s]. *)

(** {2 Construction helpers} *)

val int : int -> t

val float_array : float array -> t

val int_array : int array -> t

(** {2 Access helpers}

    All return [Error] rather than raising: the server turns any of
    these into an [invalid_request] protocol reply. *)

val member : string -> t -> t option
(** Field of an object; [None] if absent or not an object. *)

val field : string -> t -> (t, string) result
(** Required field of an object. *)

val to_num : t -> (float, string) result

val to_int : t -> (int, string) result
(** Accepts only integral numbers. *)

val to_str : t -> (string, string) result

val to_list : t -> (t list, string) result

val int_field : string -> t -> (int, string) result

val num_field : string -> t -> (float, string) result

val str_field : string -> t -> (string, string) result
