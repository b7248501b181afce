exception Parse_error of { line : int; message : string }

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let add_quoted buf label =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    label;
  Buffer.add_char buf '"'

(* Parse a trailing quoted string starting at [start]; returns the
   label. *)
let unquote line lineno start =
  let n = String.length line in
  if start >= n || line.[start] <> '"' then fail lineno "expected quoted label";
  let buf = Buffer.create 16 in
  let rec go i =
    if i >= n then fail lineno "unterminated label"
    else
      match line.[i] with
      | '"' ->
          if i + 1 <> n then fail lineno "trailing characters after label";
          Buffer.contents buf
      | '\\' ->
          if i + 1 >= n then fail lineno "dangling escape";
          (match line.[i + 1] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | 'n' -> Buffer.add_char buf '\n'
          | c -> fail lineno "bad escape \\%c" c);
          go (i + 2)
      | c ->
          Buffer.add_char buf c;
          go (i + 1)
  in
  go (start + 1)

(* Printf's [%.17g] is this primitive applied to the same format
   string, so the text is the same without Printf's format
   interpretation. *)
external format_float : string -> float -> string = "caml_format_float"

let add_g buf x = Buffer.add_string buf (format_float "%.17g" x)

let add_int buf n = Buffer.add_string buf (Int.to_string n)

let add_kernel buf : Graph.kernel -> unit = function
  | Matrix_init n ->
      Buffer.add_string buf "init:";
      add_int buf n
  | Matrix_add n ->
      Buffer.add_string buf "add:";
      add_int buf n
  | Matrix_multiply n ->
      Buffer.add_string buf "mul:";
      add_int buf n
  | Synthetic { alpha; tau } ->
      Buffer.add_string buf "synthetic:";
      add_g buf alpha;
      Buffer.add_char buf ':';
      add_g buf tau
  | Dummy -> Buffer.add_string buf "dummy"

let kernel_to_string k =
  let buf = Buffer.create 48 in
  add_kernel buf k;
  Buffer.contents buf

let kernel_of_string s : (Graph.kernel, string) result =
  let bad () = Result.Error (Printf.sprintf "bad kernel %S" s) in
  let int n k =
    match int_of_string_opt n with Some n -> Ok (k n) | None -> bad ()
  in
  match String.split_on_char ':' s with
  | [ "dummy" ] -> Ok Graph.Dummy
  | [ "init"; n ] -> int n (fun n -> Graph.Matrix_init n)
  | [ "add"; n ] -> int n (fun n -> Graph.Matrix_add n)
  | [ "mul"; n ] -> int n (fun n -> Graph.Matrix_multiply n)
  | [ "synthetic"; a; t ] -> (
      match (float_of_string_opt a, float_of_string_opt t) with
      | Some alpha, Some tau -> Ok (Graph.Synthetic { alpha; tau })
      | _ -> bad ())
  | _ -> bad ()

let kernel_of_string_at lineno s : Graph.kernel =
  match kernel_of_string s with
  | Ok k -> k
  | Result.Error msg -> fail lineno "%s" msg

let kind_to_string : Graph.transfer_kind -> string = function
  | Oned -> "1d"
  | Twod -> "2d"

let kind_of_string lineno = function
  | "1d" -> Graph.Oned
  | "2d" -> Graph.Twod
  | s -> fail lineno "bad transfer kind %S" s

let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "mdg\n";
  Array.iter
    (fun (nd : Graph.node) ->
      Buffer.add_string buf "node ";
      add_int buf nd.id;
      Buffer.add_char buf ' ';
      add_kernel buf nd.kernel;
      Buffer.add_char buf ' ';
      add_quoted buf nd.label;
      Buffer.add_char buf '\n')
    (Graph.nodes g);
  List.iter
    (fun (e : Graph.edge) ->
      Buffer.add_string buf "edge ";
      add_int buf e.src;
      Buffer.add_char buf ' ';
      add_int buf e.dst;
      Buffer.add_char buf ' ';
      add_g buf e.bytes;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (kind_to_string e.kind);
      Buffer.add_char buf '\n')
    (Graph.edges g);
  Buffer.contents buf

let of_string text =
  let lines = String.split_on_char '\n' text in
  let b = Graph.create_builder () in
  let next_id = ref 0 in
  let saw_header = ref false in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line = String.trim raw in
      if line <> "" && line.[0] <> '#' then
        if not !saw_header then
          if line = "mdg" then saw_header := true
          else fail lineno "expected 'mdg' header"
        else
          match String.index_opt line ' ' with
          | None -> fail lineno "cannot parse line"
          | Some sp -> (
              let keyword = String.sub line 0 sp in
              let rest = String.sub line (sp + 1) (String.length line - sp - 1) in
              match keyword with
              | "node" -> (
                  (* node <id> <kernel> "<label>" *)
                  match String.split_on_char ' ' rest with
                  | id :: kernel :: _ ->
                      let id =
                        match int_of_string_opt id with
                        | Some i -> i
                        | None -> fail lineno "bad node id %S" id
                      in
                      if id <> !next_id then
                        fail lineno "node ids must be dense and ordered (got %d, expected %d)"
                          id !next_id;
                      let kernel = kernel_of_string_at lineno kernel in
                      (* The label is the first '"' on the line. *)
                      let qpos =
                        match String.index_opt line '"' with
                        | Some q -> q
                        | None -> fail lineno "missing label"
                      in
                      let label = unquote line lineno qpos in
                      let got = Graph.add_node b ~label ~kernel in
                      assert (got = id);
                      incr next_id
                  | _ -> fail lineno "cannot parse node line")
              | "edge" -> (
                  match String.split_on_char ' ' rest with
                  | [ src; dst; bytes; kind ] ->
                      let int_field name v =
                        match int_of_string_opt v with
                        | Some i -> i
                        | None -> fail lineno "bad %s %S" name v
                      in
                      let bytes =
                        match float_of_string_opt bytes with
                        | Some f -> f
                        | None -> fail lineno "bad bytes %S" bytes
                      in
                      Graph.add_edge b ~src:(int_field "src" src)
                        ~dst:(int_field "dst" dst) ~bytes
                        ~kind:(kind_of_string lineno kind)
                  | _ -> fail lineno "cannot parse edge line")
              | other -> fail lineno "unknown keyword %S" other))
    lines;
  if not !saw_header then fail 0 "missing 'mdg' header";
  Graph.build b

let save path g =
  let oc = open_out path in
  output_string oc (to_string g);
  close_out oc

let load path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  of_string text
