(* Self-tests of the benchmark's own machinery. *)

open Planbench

(* Request lists *)

let cold_lines ~seed =
  List.mapi Lists.item_line (List.concat (Array.to_list (Lists.plan_cold ~seed ~seconds:1)))

let serve_lines (s : Lists.serve) = Array.concat (Array.to_list s.warmup @ Array.to_list s.timed)

let node_mix graphs =
  List.sort compare (List.filter_map (fun g -> Lists.bin_of (Mdg.Graph.num_nodes g)) graphs)

let test_lists_repeat () =
  Alcotest.(check (list string)) "plan-cold, same seed" (cold_lines ~seed:7) (cold_lines ~seed:7);
  Alcotest.(check bool) "plan-cold, other seed" false (cold_lines ~seed:7 = cold_lines ~seed:8);
  let hit seed = serve_lines (Lists.serve_hit ~seed ~seconds:1) in
  Alcotest.(check (array string)) "serve-hit, same seed" (hit 7) (hit 7);
  Alcotest.(check bool) "serve-hit, other seed" false (hit 7 = hit 8);
  let drift seed = serve_lines (Lists.serve_drift ~seed ~seconds:1) in
  Alcotest.(check (array string)) "serve-drift, same seed" (drift 7) (drift 7);
  Alcotest.(check bool) "serve-drift, other seed" false (drift 7 = drift 8)

let test_size_mix () =
  let shapes seed = Lists.shapes (Lists.rng ~seed ~salt:0) ~count:40 ~taken:(Hashtbl.create 8) in
  let a = shapes 1 and b = shapes 2 in
  Alcotest.(check (list int)) "same node-count mix for every seed" (node_mix a) (node_mix b);
  Alcotest.(check int) "every shape in a bin" 40 (List.length (node_mix a));
  let hashes = List.sort_uniq compare (List.map Mdg.Graph.structural_hash a) in
  Alcotest.(check int) "distinct shapes" 40 (List.length hashes);
  Alcotest.(check int) "quotas add up" 40 (List.fold_left ( + ) 0 (Lists.quotas 40))

(* Percentiles *)

let pct ~pct samples =
  match Stats.percentile ~pct samples with Ok v -> Some v | Error _ -> None

let test_percentile () =
  let ramp n = Array.init n (fun i -> float_of_int (n - i)) in
  Alcotest.(check (option (float 0.0))) "p50 of 1..100 by nearest rank" (Some 50.0) (pct ~pct:50 (ramp 100));
  Alcotest.(check (option (float 0.0))) "p90 of 1..100 by nearest rank" (Some 90.0) (pct ~pct:90 (ramp 100));
  Alcotest.(check (option (float 0.0))) "p50 of 1..21" (Some 11.0) (pct ~pct:50 (ramp 21));
  let with_failures = Array.init 100 (fun i -> if i < 11 then infinity else float_of_int i) in
  Alcotest.(check (option (float 0.0)))
    "failures count as +inf" (Some infinity) (pct ~pct:90 with_failures);
  let ten_failures = Array.init 100 (fun i -> if i < 10 then infinity else float_of_int i) in
  Alcotest.(check (option (float 0.0))) "p90 below ten failures" (Some 99.0) (pct ~pct:90 ten_failures);
  Alcotest.(check (option (float 0.0))) "p90 needs ten samples beyond" None (pct ~pct:90 (ramp 99));
  Alcotest.(check (option (float 0.0))) "p50 needs ten samples beyond" None (pct ~pct:50 (ramp 19));
  Alcotest.(check (option (float 0.0))) "p50 of 20 samples" (Some 10.0) (pct ~pct:50 (ramp 20))

(* Span trees *)

let span ?(parent = -1) name start stop = { Spans.name; req = 0; parent; start; stop }

let test_self_time () =
  let spans =
    [|
      span "root" 0.0 10.0;
      span ~parent:0 "a" 1.0 4.0;
      span ~parent:0 "b" 3.0 6.0 (* overlaps a *);
      span ~parent:0 "c" 9.0 12.0 (* runs past the root *);
      span ~parent:1 "a.child" 2.0 3.0;
    |]
  in
  Alcotest.(check (array (float 1e-12)))
    "self = duration - union of children"
    [| 4.0; 2.0; 3.0; 3.0; 1.0 |]
    (Spans.self_times spans)

let test_nesting () =
  (* Completion order of one plan call: compile, solve, allocate,
     schedule, plan. *)
  let extents = [| (1.0, 2.0); (2.0, 5.0); (0.5, 5.5); (6.0, 7.0); (0.0, 8.0) |] in
  Alcotest.(check (array int)) "parents" [| 2; 2; 4; 4; -1 |] (Spans.nest_completed extents)

(* /proc readings *)

let stat_sample steal idle =
  Printf.sprintf
    "cpu  100 5 50 %d 20 3 2 %d 7 0\ncpu0 50 2 25 500 10 1 1 20 3 0\nintr 12345\nctxt 678\n" idle
    steal

let test_steal () =
  let before = Procfs.parse_cpu (stat_sample 40 1000) in
  let after = Procfs.parse_cpu (stat_sample 70 1070) in
  Alcotest.(check (option (pair int int)))
    "aggregate cpu line" (Some (1220, 40))
    (Option.map (fun (c : Procfs.cpu) -> (c.total, c.steal)) before);
  (match (before, after) with
  | Some before, Some after ->
      Alcotest.(check (float 1e-12)) "steal share" 0.3 (Procfs.steal_share ~before ~after)
  | _ -> Alcotest.fail "sample did not parse");
  Alcotest.(check bool) "no cpu line" true (Procfs.parse_cpu "intr 1\n" = None);
  Alcotest.(check bool) "short cpu line" true (Procfs.parse_cpu "cpu  1 2 3\n" = None)

let () =
  Alcotest.run "planbench"
    [
      ( "lists",
        [
          Alcotest.test_case "byte-identical per seed, differ across seeds" `Quick test_lists_repeat;
          Alcotest.test_case "size mix is seed-independent" `Quick test_size_mix;
        ] );
      ("stats", [ Alcotest.test_case "nearest-rank percentile" `Quick test_percentile ]);
      ( "spans",
        [
          Alcotest.test_case "self time with overlapping children" `Quick test_self_time;
          Alcotest.test_case "nesting from completion order" `Quick test_nesting;
        ] );
      ("procfs", [ Alcotest.test_case "steal parser" `Quick test_steal ]);
    ]
