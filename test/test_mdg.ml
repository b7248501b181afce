(* Tests for the MDG substrate: graph construction/validation,
   structural analyses, normalisation, rendering. *)

module G = Mdg.Graph
module A = Mdg.Analysis

let synth ?(alpha = 0.1) ?(tau = 1.0) () : G.kernel = Synthetic { alpha; tau }

(* Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3. *)
let diamond () =
  let b = G.create_builder () in
  let n0 = G.add_node b ~label:"a" ~kernel:(synth ()) in
  let n1 = G.add_node b ~label:"b" ~kernel:(synth ~tau:2.0 ()) in
  let n2 = G.add_node b ~label:"c" ~kernel:(synth ~tau:3.0 ()) in
  let n3 = G.add_node b ~label:"d" ~kernel:(synth ()) in
  G.add_edge b ~src:n0 ~dst:n1 ~bytes:100.0 ~kind:Oned;
  G.add_edge b ~src:n0 ~dst:n2 ~bytes:200.0 ~kind:Twod;
  G.add_edge b ~src:n1 ~dst:n3 ~bytes:300.0 ~kind:Oned;
  G.add_edge b ~src:n2 ~dst:n3 ~bytes:400.0 ~kind:Oned;
  G.build b

let test_build_accessors () =
  let g = diamond () in
  Alcotest.(check int) "nodes" 4 (G.num_nodes g);
  Alcotest.(check int) "edges" 4 (List.length (G.edges g));
  Alcotest.(check int) "preds of 3" 2 (List.length (G.preds g 3));
  Alcotest.(check int) "succs of 0" 2 (List.length (G.succs g 0));
  Alcotest.(check (list int)) "sources" [ 0 ] (G.sources g);
  Alcotest.(check (list int)) "sinks" [ 3 ] (G.sinks g);
  Alcotest.(check string) "label" "b" (G.node g 1).label;
  (match G.edge_between g ~src:0 ~dst:2 with
  | Some e ->
      Alcotest.(check (float 0.0)) "bytes" 200.0 e.bytes;
      Alcotest.(check bool) "kind" true (e.kind = G.Twod)
  | None -> Alcotest.fail "edge 0->2 missing");
  Alcotest.(check bool) "no edge 1->2" true (G.edge_between g ~src:1 ~dst:2 = None)

let test_build_rejects_cycles () =
  let b = G.create_builder () in
  let n0 = G.add_node b ~label:"a" ~kernel:(synth ()) in
  let n1 = G.add_node b ~label:"b" ~kernel:(synth ()) in
  G.add_edge b ~src:n0 ~dst:n1 ~bytes:0.0 ~kind:Oned;
  G.add_edge b ~src:n1 ~dst:n0 ~bytes:0.0 ~kind:Oned;
  Alcotest.check_raises "cycle"
    (Invalid_argument "Graph.build: edge relation has a cycle") (fun () ->
      ignore (G.build b))

let test_build_rejects_bad_edges () =
  let b = G.create_builder () in
  let n0 = G.add_node b ~label:"a" ~kernel:(synth ()) in
  let n1 = G.add_node b ~label:"b" ~kernel:(synth ()) in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self loop")
    (fun () -> G.add_edge b ~src:n0 ~dst:n0 ~bytes:0.0 ~kind:Oned);
  Alcotest.check_raises "bad dst" (Invalid_argument "Graph.add_edge: bad dst")
    (fun () -> G.add_edge b ~src:n0 ~dst:7 ~bytes:0.0 ~kind:Oned);
  List.iter
    (fun (name, bytes) ->
      Alcotest.check_raises name
        (Invalid_argument "Graph.add_edge: byte count negative or not finite")
        (fun () -> G.add_edge b ~src:n0 ~dst:n1 ~bytes ~kind:Oned))
    [
      ("bytes negative", -1.0);
      ("bytes nan", Float.nan);
      ("bytes infinity", Float.infinity);
    ];
  G.add_edge b ~src:n0 ~dst:n1 ~bytes:1.0 ~kind:Oned;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.add_edge: duplicate edge") (fun () ->
      G.add_edge b ~src:n0 ~dst:n1 ~bytes:2.0 ~kind:Twod)

let test_kernel_validation () =
  let b = G.create_builder () in
  Alcotest.check_raises "alpha range"
    (Invalid_argument "Graph.add_node: alpha outside [0,1]") (fun () ->
      ignore (G.add_node b ~label:"x" ~kernel:(Synthetic { alpha = 1.5; tau = 1.0 })));
  (* NaN passes a plain range test, and "1e999" reads as infinity. *)
  Alcotest.check_raises "alpha nan"
    (Invalid_argument "Graph.add_node: alpha outside [0,1]") (fun () ->
      ignore (G.add_node b ~label:"x" ~kernel:(Synthetic { alpha = Float.nan; tau = 1.0 })));
  List.iter
    (fun (name, tau) ->
      Alcotest.check_raises name
        (Invalid_argument "Graph.add_node: tau negative or not finite") (fun () ->
          ignore (G.add_node b ~label:"x" ~kernel:(Synthetic { alpha = 0.2; tau }))))
    [
      ("tau negative", -1.0);
      ("tau nan", Float.nan);
      ("tau infinity", Float.infinity);
    ];
  Alcotest.check_raises "matrix size"
    (Invalid_argument "Graph.add_node: matrix size < 1") (fun () ->
      ignore (G.add_node b ~label:"x" ~kernel:(Matrix_add 0)))

let test_normalise_diamond_noop () =
  let g = diamond () in
  Alcotest.(check bool) "already normalised" true (G.is_normalised g);
  let g' = G.normalise g in
  Alcotest.(check int) "unchanged" (G.num_nodes g) (G.num_nodes g')

let test_normalise_adds_dummies () =
  let b = G.create_builder () in
  let n0 = G.add_node b ~label:"a" ~kernel:(synth ()) in
  let n1 = G.add_node b ~label:"b" ~kernel:(synth ()) in
  let n2 = G.add_node b ~label:"c" ~kernel:(synth ()) in
  ignore n0;
  ignore n1;
  ignore n2;
  (* Three independent nodes: need START and STOP. *)
  let g = G.normalise (G.build b) in
  Alcotest.(check int) "5 nodes" 5 (G.num_nodes g);
  Alcotest.(check bool) "normalised" true (G.is_normalised g);
  let start = G.start_node g and stop = G.stop_node g in
  Alcotest.(check bool) "start is dummy" true ((G.node g start).kernel = G.Dummy);
  Alcotest.(check bool) "stop is dummy" true ((G.node g stop).kernel = G.Dummy);
  Alcotest.(check int) "start fans out" 3 (List.length (G.succs g start));
  Alcotest.(check int) "stop fans in" 3 (List.length (G.preds g stop))

let test_normalise_single_node () =
  let b = G.create_builder () in
  ignore (G.add_node b ~label:"only" ~kernel:(synth ()));
  let g = G.normalise (G.build b) in
  Alcotest.(check bool) "normalised" true (G.is_normalised g);
  Alcotest.(check int) "3 nodes" 3 (G.num_nodes g)

let test_normalise_idempotent () =
  let g = G.normalise (diamond ()) in
  let g' = G.normalise g in
  Alcotest.(check int) "same size" (G.num_nodes g) (G.num_nodes g')

let test_start_stop_on_unnormalised () =
  let b = G.create_builder () in
  ignore (G.add_node b ~label:"a" ~kernel:(synth ()));
  ignore (G.add_node b ~label:"b" ~kernel:(synth ()));
  let g = G.build b in
  Alcotest.check_raises "no unique source"
    (Invalid_argument "Graph.start_node: graph not normalised") (fun () ->
      ignore (G.start_node g))

let test_kernel_helpers () =
  Alcotest.(check (float 0.0)) "mul flops" (2.0 *. 64.0 ** 3.0)
    (G.kernel_flops (Matrix_multiply 64));
  Alcotest.(check (float 0.0)) "add flops" 4096.0 (G.kernel_flops (Matrix_add 64));
  Alcotest.(check (float 0.0)) "bytes" 32768.0 (G.kernel_bytes (Matrix_add 64));
  Alcotest.(check (float 0.0)) "dummy flops" 0.0 (G.kernel_flops Dummy)

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let test_topological_order () =
  let g = diamond () in
  let order = A.topological_order g in
  Alcotest.(check int) "covers all" 4 (List.length order);
  let pos = Hashtbl.create 4 in
  List.iteri (fun i n -> Hashtbl.add pos n i) order;
  List.iter
    (fun (e : G.edge) ->
      Alcotest.(check bool) "edge respected" true
        (Hashtbl.find pos e.src < Hashtbl.find pos e.dst))
    (G.edges g)

let test_reachable () =
  let g = diamond () in
  let r = A.reachable g 1 in
  Alcotest.(check bool) "1 -> 3" true r.(3);
  Alcotest.(check bool) "1 itself" true r.(1);
  Alcotest.(check bool) "not 0" false r.(0);
  Alcotest.(check bool) "not 2" false r.(2)

let test_finish_times_and_critical_path () =
  let g = diamond () in
  (* Unit edge weights 0, node weights = tau. *)
  let node_weight i = (fun (nd : G.node) ->
      match nd.kernel with G.Synthetic { tau; _ } -> tau | _ -> 0.0)
      (G.node g i)
  in
  let edge_weight _ = 0.0 in
  let y = A.finish_times ~node_weight ~edge_weight g in
  Alcotest.(check (float 1e-9)) "y0" 1.0 y.(0);
  Alcotest.(check (float 1e-9)) "y1" 3.0 y.(1);
  Alcotest.(check (float 1e-9)) "y2" 4.0 y.(2);
  Alcotest.(check (float 1e-9)) "y3" 5.0 y.(3);
  Alcotest.(check (float 1e-9)) "cp" 5.0
    (A.critical_path_time ~node_weight ~edge_weight g);
  Alcotest.(check (list int)) "path" [ 0; 2; 3 ]
    (A.critical_path ~node_weight ~edge_weight g)

let test_critical_path_with_edge_weights () =
  let g = diamond () in
  let node_weight _ = 1.0 in
  (* Heavy edge 0->1 makes the upper path critical. *)
  let edge_weight (e : G.edge) = if e.src = 0 && e.dst = 1 then 10.0 else 0.0 in
  Alcotest.(check (list int)) "edge-weighted path" [ 0; 1; 3 ]
    (A.critical_path ~node_weight ~edge_weight g);
  Alcotest.(check (float 1e-9)) "time" 13.0
    (A.critical_path_time ~node_weight ~edge_weight g)

let test_negative_weight_rejected () =
  let g = diamond () in
  Alcotest.check_raises "negative node weight"
    (Invalid_argument "Analysis: negative or non-finite node weight") (fun () ->
      ignore (A.finish_times ~node_weight:(fun _ -> -1.0) ~edge_weight:(fun _ -> 0.0) g))

let test_total_area () =
  let g = diamond () in
  let area = A.total_area ~node_weight:(fun _ -> 2.0) ~procs:(fun _ -> 3.0) g in
  Alcotest.(check (float 1e-9)) "area" 24.0 area

let test_depth_width () =
  let g = diamond () in
  Alcotest.(check int) "depth" 3 (A.depth g);
  Alcotest.(check int) "width" 2 (A.max_width g)

(* ------------------------------------------------------------------ *)
(* Render                                                              *)
(* ------------------------------------------------------------------ *)

let test_render_dot () =
  let dot = Mdg.Render.to_dot (diamond ()) in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has node" true (contains dot "n0");
  Alcotest.(check bool) "has edge" true (contains dot "n0 -> n1")

let test_render_ascii_and_summary () =
  let text = Mdg.Render.to_ascii (diamond ()) in
  Alcotest.(check bool) "mentions levels" true
    (String.length text > 0 && String.sub text 0 5 = "level");
  let s = Mdg.Render.summary (diamond ()) in
  Alcotest.(check string) "summary" "4 nodes, 4 edges, depth 3, max width 2" s

(* Property: random layered workloads always produce valid normalised
   DAGs whose analyses agree. *)
let prop_random_workload_well_formed =
  QCheck.Test.make ~name:"random layered MDGs are well-formed" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Kernels.Workloads.random_layered ~seed Kernels.Workloads.default_shape in
      G.is_normalised g
      && List.length (A.topological_order g) = G.num_nodes g
      && A.depth g >= 3
      &&
      let r = A.reachable g (G.start_node g) in
      Array.for_all Fun.id r)

(* ------------------------------------------------------------------ *)
(* Serialisation: the text is a cache key                              *)
(* ------------------------------------------------------------------ *)

(* Graphs for the serialisation tests: layered and workgen MDGs from
   Generators, the colliding pair, Strassen, and labels holding a
   quote, a backslash and newlines. *)
let serialise_cases () =
  let workgen seed =
    Workgen.generate
      (Workgen.spec_of_string_exn "depth=3,branch=3,cutoff=0.15,wiring=0.3")
      ~seed
  in
  let labelled =
    let b = G.create_builder () in
    let node label =
      G.add_node b ~label ~kernel:(G.Synthetic { alpha = 0.1; tau = 0.25 })
    in
    let a = node "say \"hi\"" in
    let c = node "back\\slash\\" in
    let d = node "two\nlines\n" in
    let e = node "" in
    G.add_edge b ~src:a ~dst:c ~bytes:1e6 ~kind:G.Oned;
    G.add_edge b ~src:c ~dst:d ~bytes:0.1 ~kind:G.Twod;
    G.add_edge b ~src:d ~dst:e ~bytes:3.0e-300 ~kind:G.Oned;
    G.build b
  in
  let a, b = Generators.colliding_pair () in
  [ a; b; labelled; G.normalise labelled ]
  @ List.init 8 (fun seed -> Generators.mdg_of_seed seed)
  @ List.init 8 workgen
  @ [ fst (Kernels.Strassen_mdg.graph ~n:128 ()) ]

(* The plan server keys its cache on the text it received and
   in-process callers on [to_string] of their graph, so encoder output
   must read back to itself. *)
let test_serialise_text_round_trip () =
  List.iteri
    (fun i g ->
      let s = Mdg.Serialize.to_string g in
      Alcotest.(check string)
        (Printf.sprintf "case %d: to_string (of_string s) = s" i)
        s
        (Mdg.Serialize.to_string (Mdg.Serialize.of_string s)))
    (serialise_cases ())

(* The Printf rendering [Mdg.Serialize.to_string] had before it wrote
   into one buffer: the reference its text must equal byte for byte. *)
let printf_to_string g =
  let quote label =
    let buf = Buffer.create (String.length label + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      label;
    Buffer.add_char buf '"';
    Buffer.contents buf
  in
  let kernel : G.kernel -> string = function
    | Matrix_init n -> Printf.sprintf "init:%d" n
    | Matrix_add n -> Printf.sprintf "add:%d" n
    | Matrix_multiply n -> Printf.sprintf "mul:%d" n
    | Synthetic { alpha; tau } ->
        Printf.sprintf "synthetic:%.17g:%.17g" alpha tau
    | Dummy -> "dummy"
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "mdg\n";
  Array.iter
    (fun (nd : G.node) ->
      Buffer.add_string buf
        (Printf.sprintf "node %d %s %s\n" nd.id (kernel nd.kernel)
           (quote nd.label)))
    (G.nodes g);
  List.iter
    (fun (e : G.edge) ->
      Buffer.add_string buf
        (Printf.sprintf "edge %d %d %.17g %s\n" e.src e.dst e.bytes
           (match e.kind with Oned -> "1d" | Twod -> "2d")))
    (G.edges g);
  Buffer.contents buf

let test_serialise_matches_printf () =
  List.iteri
    (fun i g ->
      Alcotest.(check string)
        (Printf.sprintf "case %d: same text as Printf" i)
        (printf_to_string g) (Mdg.Serialize.to_string g))
    (serialise_cases ());
  List.iter
    (fun k ->
      let g =
        let b = G.create_builder () in
        ignore (G.add_node b ~label:"k" ~kernel:k);
        G.build b
      in
      Alcotest.(check string) "every kernel form" (printf_to_string g)
        (Mdg.Serialize.to_string g))
    [
      G.Matrix_init 8;
      G.Matrix_add 64;
      G.Matrix_multiply 1024;
      G.Dummy;
      G.Synthetic { alpha = 0.0; tau = 1e-310 };
      G.Synthetic { alpha = 1.0; tau = 123456789.0 };
    ]

let suite =
  [
    Alcotest.test_case "build + accessors" `Quick test_build_accessors;
    Alcotest.test_case "build rejects cycles" `Quick test_build_rejects_cycles;
    Alcotest.test_case "build rejects bad edges" `Quick test_build_rejects_bad_edges;
    Alcotest.test_case "kernel validation" `Quick test_kernel_validation;
    Alcotest.test_case "normalise is noop on normal graphs" `Quick
      test_normalise_diamond_noop;
    Alcotest.test_case "normalise adds START/STOP" `Quick
      test_normalise_adds_dummies;
    Alcotest.test_case "normalise single node" `Quick test_normalise_single_node;
    Alcotest.test_case "normalise idempotent" `Quick test_normalise_idempotent;
    Alcotest.test_case "start_node rejects unnormalised" `Quick
      test_start_stop_on_unnormalised;
    Alcotest.test_case "kernel flops/bytes" `Quick test_kernel_helpers;
    Alcotest.test_case "topological order" `Quick test_topological_order;
    Alcotest.test_case "reachability" `Quick test_reachable;
    Alcotest.test_case "finish times / critical path" `Quick
      test_finish_times_and_critical_path;
    Alcotest.test_case "critical path with edge weights" `Quick
      test_critical_path_with_edge_weights;
    Alcotest.test_case "rejects negative weights" `Quick
      test_negative_weight_rejected;
    Alcotest.test_case "processor-time area" `Quick test_total_area;
    Alcotest.test_case "depth and width" `Quick test_depth_width;
    Alcotest.test_case "render DOT" `Quick test_render_dot;
    Alcotest.test_case "render ASCII + summary" `Quick
      test_render_ascii_and_summary;
    QCheck_alcotest.to_alcotest prop_random_workload_well_formed;
    Alcotest.test_case "serialise: encoder output reads back to itself"
      `Quick test_serialise_text_round_trip;
    Alcotest.test_case "serialise: text equals the Printf rendering" `Quick
      test_serialise_matches_printf;
  ]
