type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Printf's [%.0f] and [%.17g] conversions are this primitive applied
   to the same format string, so the text is the same without
   Printf's format interpretation. *)
external format_float : string -> float -> string = "caml_format_float"

let add_num buf x =
  if Float.is_integer x && Float.abs x <= 9.007199254740992e15 then
    Buffer.add_string buf (format_float "%.0f" x)
  else if Float.is_finite x then
    Buffer.add_string buf (format_float "%.17g" x)
  else
    (* JSON has no infinities/NaN; null is the conventional stand-in. *)
    Buffer.add_string buf "null"

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> add_num buf x
  | Str s -> escape buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          add buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          add buf v)
        fields;
      Buffer.add_char buf '}'

let to_buffer = add

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of int * string

let max_depth = 64

let of_substring s ~pos:first ~len =
  if first < 0 || len < 0 || first > String.length s - len then
    invalid_arg "Json.of_substring";
  let n = first + len in
  let pos = ref first in
  let fail fmt =
    Printf.ksprintf (fun msg -> raise (Bad (!pos, msg))) fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "expected %c, got %c" c c'
    | None -> fail "expected %c, got end of input" c
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail "bad literal"
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        advance ()
      done;
      if !pos = d0 then fail "malformed number"
    in
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> x
    | None -> fail "malformed number"
  in
  (* The code point of the four hex digits at [i], or -1. *)
  let hex4 i =
    if i + 4 > n then -1
    else
      let digit c =
        match c with
        | '0' .. '9' -> Char.code c - 48
        | 'a' .. 'f' -> Char.code c - 87
        | 'A' .. 'F' -> Char.code c - 55
        | _ -> -1
      in
      let d0 = digit s.[i] and d1 = digit s.[i + 1]
      and d2 = digit s.[i + 2] and d3 = digit s.[i + 3] in
      if d0 lor d1 lor d2 lor d3 < 0 then -1
      else (d0 lsl 12) lor (d1 lsl 8) lor (d2 lsl 4) lor d3
  in
  (* A \u escape decodes to its code point in UTF-8; surrogate pairs
     outside the BMP are not needed by this protocol and decode as two
     replacement-range sequences. *)
  let utf8_length code =
    if code < 0x80 then 1 else if code < 0x800 then 2 else 3
  in
  (* The two passes below keep their index in a local ref and read
     unchecked only after testing it against [n]. *)
  let string_ () =
    expect '"';
    (* First pass: the string's span, up to its closing quote (or the
       end of input), and its decoded length.  It decodes every valid
       escape as the second pass does, so the second fills one exactly
       sized block; an invalid escape fails there before it writes. *)
    let stop = ref !pos and size = ref 0 in
    while !stop < n && String.unsafe_get s !stop <> '"' do
      (if String.unsafe_get s !stop <> '\\' then stop := !stop + 1
       else
         let code =
           if !stop + 1 < n && String.unsafe_get s (!stop + 1) = 'u' then
             hex4 (!stop + 2)
           else -1
         in
         if code < 0 then stop := !stop + 2
         else begin
           stop := !stop + 6;
           size := !size + utf8_length code - 1
         end);
      incr size
    done;
    let out = Bytes.create !size in
    let o = ref 0 in
    let put c =
      Bytes.set out !o c;
      incr o
    in
    let rec go () =
      (* A run of bytes that need no decoding (no quote, backslash or
         control character) is copied with one blit. *)
      let run = !pos in
      let i = ref run in
      while
        !i < n
        &&
        let c = String.unsafe_get s !i in
        c <> '"' && c <> '\\' && c >= ' '
      do
        incr i
      done;
      pos := !i;
      Bytes.blit_string s run out !o (!i - run);
      o := !o + (!i - run);
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "dangling escape"
             else
               match s.[!pos] with
               | '"' -> put '"'; advance ()
               | '\\' -> put '\\'; advance ()
               | '/' -> put '/'; advance ()
               | 'n' -> put '\n'; advance ()
               | 't' -> put '\t'; advance ()
               | 'r' -> put '\r'; advance ()
               | 'b' -> put '\b'; advance ()
               | 'f' -> put '\012'; advance ()
               | 'u' ->
                   advance ();
                   let code = hex4 !pos in
                   if code < 0 then fail "bad \\u escape";
                   pos := !pos + 4;
                   if code < 0x80 then put (Char.chr code)
                   else if code < 0x800 then begin
                     put (Char.chr (0xC0 lor (code lsr 6)));
                     put (Char.chr (0x80 lor (code land 0x3F)))
                   end
                   else begin
                     put (Char.chr (0xE0 lor (code lsr 12)));
                     put (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                     put (Char.chr (0x80 lor (code land 0x3F)))
                   end
               | c -> fail "bad escape \\%c" c);
            go ()
        | _ -> fail "raw control character in string"
    in
    go ();
    Bytes.unsafe_to_string out
  in
  (* [depth] counts the arrays and objects open around the value. *)
  let rec value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (string_ ())
    | Some ('[' | '{') when depth >= max_depth ->
        fail "arrays and objects nested deeper than %d levels" max_depth
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ value (depth + 1) ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := value (depth + 1) :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let entry () =
            skip_ws ();
            let k = string_ () in
            skip_ws ();
            expect ':';
            let v = value (depth + 1) in
            (k, v)
          in
          let fields = ref [ entry () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := entry () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some ('-' | '0' .. '9') -> Num (number ())
    | Some c -> fail "unexpected character %C" c
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing characters after value";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" (at - first) msg)

let of_string s = of_substring s ~pos:0 ~len:(String.length s)

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let int i = Num (float_of_int i)

let float_array a = List (Array.to_list (Array.map (fun x -> Num x) a))

let int_array a = List (Array.to_list (Array.map (fun i -> int i) a))

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Num _ -> "number"
  | Str _ -> "string"
  | List _ -> "array"
  | Obj _ -> "object"

let field name v =
  match v with
  | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing field %S" name))
  | other -> Error (Printf.sprintf "expected an object, got %s" (type_name other))

let to_num = function
  | Num x -> Ok x
  | other -> Error (Printf.sprintf "expected a number, got %s" (type_name other))

let to_int = function
  | Num x when Float.is_integer x && Float.abs x <= 1e15 ->
      Ok (int_of_float x)
  | Num _ -> Error "expected an integer"
  | other -> Error (Printf.sprintf "expected an integer, got %s" (type_name other))

let to_str = function
  | Str s -> Ok s
  | other -> Error (Printf.sprintf "expected a string, got %s" (type_name other))

let to_list = function
  | List xs -> Ok xs
  | other -> Error (Printf.sprintf "expected an array, got %s" (type_name other))

let ( let* ) = Result.bind

let in_field name r =
  Result.map_error (fun e -> Printf.sprintf "field %S: %s" name e) r

let int_field name v =
  let* f = field name v in
  in_field name (to_int f)

let num_field name v =
  let* f = field name v in
  in_field name (to_num f)

let str_field name v =
  let* f = field name v in
  in_field name (to_str f)
