(* Tests for the Obs telemetry subsystem: sink round-trips, exporter
   well-formedness, the null sink's no-op guarantee, and a regression
   asserting a fully traced strassen2 pipeline run still produces a
   valid schedule. *)

module E = Obs.Events

(* ------------------------------------------------------------------ *)
(* A tiny JSON parser (validity checking only).                        *)
(* ------------------------------------------------------------------ *)

exception Bad_json of string

let parse_json (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let literal word =
    String.iter (fun c -> expect c) word
  in
  let parse_string () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail "bad \\u escape"
              done;
              go ()
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some _ ->
          advance ();
          go ()
    in
    go ()
  in
  let parse_number () =
    let digits () =
      let seen = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
            seen := true;
            advance ();
            go ()
        | _ -> ()
      in
      go ();
      if not !seen then fail "expected digit"
    in
    (match peek () with Some '-' -> advance () | _ -> ());
    digits ();
    (match peek () with
    | Some '.' ->
        advance ();
        digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ()
  in
  let rec parse_value () =
    skip_ws ();
    (match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then advance ()
        else
          let rec members () =
            skip_ws ();
            parse_string ();
            skip_ws ();
            expect ':';
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected , or }"
          in
          members ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then advance ()
        else
          let rec elements () =
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected , or ]"
          in
          elements ()
    | Some '"' -> parse_string ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail "expected a JSON value");
    skip_ws ()
  in
  parse_value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let check_json msg text =
  match parse_json text with
  | () -> ()
  | exception Bad_json why ->
      Alcotest.failf "%s: invalid JSON (%s) in:\n%s" msg why text

(* ------------------------------------------------------------------ *)
(* Null sink                                                           *)
(* ------------------------------------------------------------------ *)

let test_null_noop () =
  Alcotest.(check bool) "null disabled" false (Obs.enabled Obs.null);
  let calls = ref 0 in
  let v =
    Obs.span Obs.null "unseen" (fun () ->
        incr calls;
        42)
  in
  Alcotest.(check int) "span returns thunk value" 42 v;
  Alcotest.(check int) "thunk ran once" 1 !calls;
  (* Emitting on the null sink must be a silent no-op. *)
  Obs.instant Obs.null "nothing";
  Obs.counter Obs.null "nothing" [ ("x", 1.0) ];
  Obs.complete Obs.null "nothing" ~ts:0.0 ~dur:1.0;
  Obs.flush Obs.null;
  (match Obs.Sink.tee Obs.null Obs.null with
  | Obs.Sink.Null -> ()
  | _ -> Alcotest.fail "tee null null should be null");
  (* The no-op guarantee is what keeps bench numbers unaffected: the
     guarded emission pattern does zero work on the hot path. *)
  let words_before = Gc.minor_words () in
  for _ = 1 to 1000 do
    if Obs.enabled Obs.null then
      Obs.instant Obs.null "never" ~args:[ ("i", E.Int 0) ]
  done;
  let words_after = Gc.minor_words () in
  Alcotest.(check bool)
    "guarded null emission allocates nothing" true
    (words_after -. words_before < 256.0)

(* ------------------------------------------------------------------ *)
(* Recorder round-trip                                                 *)
(* ------------------------------------------------------------------ *)

let test_recorder_roundtrip () =
  let r = Obs.Recorder.create () in
  let obs = Obs.Recorder.sink r in
  Alcotest.(check bool) "recorder enabled" true (Obs.enabled obs);
  Obs.process_name obs ~pid:0 "test process";
  Obs.instant obs ~cat:"c" "first" ~args:[ ("k", E.Int 7) ];
  Obs.counter obs "count" [ ("v", 3.5) ];
  let x = Obs.span obs "work" (fun () -> "done") in
  Alcotest.(check string) "span result" "done" x;
  Obs.complete obs ~pid:1 ~tid:2 "seg" ~ts:0.5 ~dur:0.25;
  Alcotest.(check int) "five events" 5 (Obs.Recorder.length r);
  let names = List.map E.name (Obs.Recorder.events r) in
  Alcotest.(check (list string))
    "names in emission order"
    [ "process_name"; "first"; "count"; "work"; "seg" ]
    names;
  (match Obs.Recorder.events r with
  | [ _; E.Instant { args = [ ("k", E.Int 7) ]; cat = "c"; _ };
      E.Counter { series = [ ("v", 3.5) ]; _ };
      E.Complete { dur; _ };
      E.Complete { ts = 0.5; dur = 0.25; pid = 1; tid = 2; _ } ] ->
      Alcotest.(check bool) "span duration non-negative" true (dur >= 0.0)
  | _ -> Alcotest.fail "unexpected event payloads");
  Obs.Recorder.clear r;
  Alcotest.(check int) "clear empties" 0 (Obs.Recorder.length r)

let test_tee () =
  let a = Obs.Recorder.create () in
  let b = Obs.Recorder.create () in
  let obs = Obs.Sink.tee (Obs.Recorder.sink a) (Obs.Recorder.sink b) in
  Obs.instant obs "both";
  Alcotest.(check int) "left saw it" 1 (Obs.Recorder.length a);
  Alcotest.(check int) "right saw it" 1 (Obs.Recorder.length b)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let sample_events () =
  [
    E.Process_name { pid = 0; name = "proc \"quoted\"\n" };
    E.Thread_name { pid = 0; tid = 3; name = "P03" };
    E.Complete
      {
        name = "span";
        cat = "pipeline";
        pid = 0;
        tid = 0;
        ts = 0.001;
        dur = 0.5;
        args = [ ("n", E.Int 12); ("ok", E.Bool true); ("s", E.Str "x\\y") ];
      };
    E.Instant
      {
        name = "mark";
        cat = "";
        pid = 0;
        tid = 0;
        ts = 1e-9;
        args = [ ("f", E.Float 1.25e-6) ];
      };
    E.Counter
      {
        name = "conv";
        pid = 0;
        tid = 0;
        ts = 2.0;
        series = [ ("mu", 1e-4); ("iters", 31.0) ];
      };
  ]

let test_chrome_json () =
  let json = Obs.Chrome_format.to_json (sample_events ()) in
  check_json "chrome trace" json;
  Alcotest.(check bool) "is an array" true (json.[0] = '[');
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i =
      if i + nl > jl then false
      else if String.sub json i nl = needle then true
      else go (i + 1)
    in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains needle))
    [
      "\"ph\":\"X\"";
      "\"ph\":\"i\"";
      "\"ph\":\"C\"";
      "\"ph\":\"M\"";
      "\"dur\":500000.000";
      "proc \\\"quoted\\\"\\n";
    ]

let test_jsonl () =
  List.iter
    (fun ev ->
      let line = Obs.Jsonl_format.to_line ev in
      check_json "jsonl line" line;
      Alcotest.(check bool)
        "single line" false
        (String.contains line '\n'))
    (sample_events ())

let test_jsonl_sink_streams () =
  let path = Filename.temp_file "obs_test" ".jsonl" in
  let oc = open_out path in
  let obs = Obs.Jsonl_format.sink oc in
  List.iter (Obs.emit obs) (sample_events ());
  Obs.flush obs;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Alcotest.(check int) "one line per event" 5 (List.length !lines);
  List.iter (check_json "streamed line") !lines

let test_summary () =
  let events =
    [
      E.Complete
        { name = "a"; cat = ""; pid = 0; tid = 0; ts = 0.0; dur = 1.5; args = [] };
      E.Complete
        { name = "a"; cat = ""; pid = 0; tid = 0; ts = 2.0; dur = 0.5; args = [] };
      E.Instant { name = "b"; cat = ""; pid = 0; tid = 0; ts = 0.0; args = [] };
      E.Counter
        { name = "c"; pid = 0; tid = 0; ts = 0.0; series = [ ("v", 1.0) ] };
      E.Counter
        { name = "c"; pid = 0; tid = 0; ts = 1.0; series = [ ("v", 9.0) ] };
      E.Process_name { pid = 0; name = "meta ignored" };
    ]
  in
  match Obs.Summary.of_events events with
  | [ a; b; c ] ->
      Alcotest.(check string) "row a" "a" a.Obs.Summary.name;
      Alcotest.(check int) "a count" 2 a.count;
      Alcotest.(check (float 1e-9)) "a total" 2.0 a.total_dur;
      Alcotest.(check string) "row b" "b" b.name;
      Alcotest.(check string) "row c" "c" c.name;
      Alcotest.(check (list (pair string (float 1e-9))))
        "c keeps last sample"
        [ ("v", 9.0) ]
        c.last;
      let table = Obs.Summary.to_string [ a; b; c ] in
      Alcotest.(check bool) "table mentions a" true
        (String.length table > 0 && String.contains table 'a')
  | rows -> Alcotest.failf "expected 3 rows, got %d" (List.length rows)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_monotonic_clock () =
  let prev = ref (Obs.now ()) in
  for _ = 1 to 100_000 do
    let t = Obs.now () in
    if t < !prev then
      Alcotest.failf "Obs.now went back: %.9f after %.9f" t !prev;
    prev := t
  done;
  (* Every span of a traced plan has a non-negative duration. *)
  let recorder = Obs.Recorder.create () in
  let config =
    Core.Pipeline.(default_config |> with_obs (Obs.Recorder.sink recorder))
  in
  let g =
    Workgen.generate (Workgen.spec_of_string_exn "depth=2,branch=2") ~seed:3
  in
  let params = Costmodel.Params.make ~transfer:Costmodel.Params.cm5_transfer in
  ignore (Core.Pipeline.plan_exn ~config params g ~procs:16);
  let spans =
    List.filter_map
      (function E.Complete { name; dur; _ } -> Some (name, dur) | _ -> None)
      (Obs.Recorder.events recorder)
  in
  Alcotest.(check bool) "spans recorded" true (spans <> []);
  List.iter
    (fun (name, dur) ->
      if dur < 0.0 then Alcotest.failf "span %s has duration %g" name dur)
    spans

(* ------------------------------------------------------------------ *)
(* Traced pipeline regression                                          *)
(* ------------------------------------------------------------------ *)

let count_name events name =
  List.length (List.filter (fun ev -> E.name ev = name) events)

let test_traced_strassen2_pipeline () =
  let g = Kernels.Strassen_mdg.graph_recursive ~levels:2 ~n:32 in
  let gt = Machine.Ground_truth.cm5_like () in
  let params, _, _ =
    Machine.Measure.calibrate gt
      ~procs:[ 1; 2; 4; 8; 16; 32; 64 ]
      (Kernels.Strassen_mdg.kernels_recursive ~levels:2 ~n:32)
  in
  let recorder = Obs.Recorder.create () in
  let config =
    Core.Pipeline.(default_config |> with_obs (Obs.Recorder.sink recorder))
  in
  let plan = Core.Pipeline.plan_exn ~config params g ~procs:16 in
  (* The traced run must still produce a valid schedule: telemetry is
     observation, never interference. *)
  (match Core.Schedule.validate params plan.graph plan.psa.schedule with
  | Ok () -> ()
  | Error msgs -> Alcotest.fail (String.concat "; " msgs));
  let sim = Core.Pipeline.simulate gt plan in
  Alcotest.(check bool) "simulated" true (sim.finish_time > 0.0);
  let events = Obs.Recorder.events recorder in
  let nodes = Mdg.Graph.num_nodes plan.graph in
  (* Compiler-side spans. *)
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " span emitted") 1 (count_name events name))
    [
      "pipeline.plan";
      "pipeline.allocate";
      "pipeline.schedule";
      "pipeline.codegen";
      "pipeline.simulate";
      "solver.solve";
    ];
  (* Solver convergence counters: one per smoothing stage. *)
  Alcotest.(check bool)
    "solver stages reported" true
    (count_name events "solver.stage" >= 2);
  (* PSA decisions: one rounding and one placement event per node. *)
  Alcotest.(check int) "psa.round per node" nodes
    (count_name events "psa.round");
  Alcotest.(check int) "psa.place per node" nodes
    (count_name events "psa.place");
  (* The machine timeline was forwarded into the same sink. *)
  Alcotest.(check bool)
    "machine segments forwarded" true
    (List.exists
       (function
         | E.Complete { pid = 1; cat = "compute"; _ } -> true | _ -> false)
       events);
  Alcotest.(check int) "messages counter" 1
    (count_name events "sim.messages_delivered");
  (* And the whole stream renders as one well-formed Chrome trace. *)
  check_json "full pipeline chrome trace" (Obs.Chrome_format.to_json events)

(* ------------------------------------------------------------------ *)
(* Solver counter contract                                             *)
(* ------------------------------------------------------------------ *)

(* Per-layer solver counts (planbench's among them) are read off the
   solver.* counters, not the result record, so the counters of one
   solve must add up to its result. *)
let series_sum events name key =
  List.fold_left
    (fun acc ev ->
      match ev with
      | E.Counter { name = n; series; _ } when n = name ->
          acc +. Option.value ~default:0.0 (List.assoc_opt key series)
      | _ -> acc)
    0.0 events

let check_counter_contract label params g ~procs =
  let recorder = Obs.Recorder.create () in
  let config =
    Core.Pipeline.(default_config |> with_obs (Obs.Recorder.sink recorder))
  in
  let plan = Core.Pipeline.plan_exn ~config params g ~procs in
  let r = plan.allocation.solver in
  let events = Obs.Recorder.events recorder in
  let sum name key = int_of_float (series_sum events name key) in
  let check what = Alcotest.(check int) (label ^ ": " ^ what) in
  check "one solve" 1 (count_name events "solver.solve");
  check "solver.stage events = stages" r.stages
    (count_name events "solver.stage");
  check "Newton iterations = iterations" r.iterations
    (sum "solver.cg_iters" "newton_iters");
  check "hvps = hvp_evals" r.hvp_evals (sum "solver.hvp" "hvps");
  check "cg_iters = cg_iterations" r.cg_iterations
    (sum "solver.cg_iters" "cg_iters");
  (* Every stage is a Newton stage and emits solver.hvp and
     solver.linesearch once. *)
  check "one solver.hvp per stage" r.stages (count_name events "solver.hvp");
  check "one solver.linesearch per stage" r.stages
    (count_name events "solver.linesearch");
  Alcotest.(check bool)
    (label ^ ": linesearch trials >= searches")
    true
    (sum "solver.linesearch" "trials" >= sum "solver.linesearch" "searches");
  r

let test_solver_counter_contract () =
  let gt = Machine.Ground_truth.cm5_like () in
  let strassen2 = Kernels.Strassen_mdg.graph_recursive ~levels:2 ~n:128 in
  let params, _, _ =
    Machine.Measure.calibrate gt
      ~procs:[ 1; 2; 4; 8; 16; 32; 64 ]
      (Kernels.Strassen_mdg.kernels_recursive ~levels:2 ~n:128)
  in
  let r = check_counter_contract "strassen:2" params strassen2 ~procs:64 in
  Alcotest.(check bool) "strassen:2 ran Newton-CG" true (r.hvp_evals > 0);
  let shape =
    Workgen.generate
      (Workgen.spec_of_string_exn "depth=3,branch=3,div=1,comb=1")
      ~seed:17
  in
  let synthetic =
    Costmodel.Params.make ~transfer:Costmodel.Params.cm5_transfer
  in
  let r = check_counter_contract "workgen" synthetic shape ~procs:64 in
  Alcotest.(check bool) "workgen ran Newton-CG" true (r.hvp_evals > 0)

let suite =
  [
    Alcotest.test_case "null sink is a no-op" `Quick test_null_noop;
    Alcotest.test_case "recorder round-trip" `Quick test_recorder_roundtrip;
    Alcotest.test_case "tee duplicates events" `Quick test_tee;
    Alcotest.test_case "chrome trace well-formed" `Quick test_chrome_json;
    Alcotest.test_case "jsonl lines well-formed" `Quick test_jsonl;
    Alcotest.test_case "jsonl sink streams" `Quick test_jsonl_sink_streams;
    Alcotest.test_case "summary aggregates" `Quick test_summary;
    Alcotest.test_case "clock is monotonic, spans non-negative" `Quick
      test_monotonic_clock;
    Alcotest.test_case "traced strassen2 validates" `Slow
      test_traced_strassen2_pipeline;
    Alcotest.test_case "solver counters add up to the result" `Slow
      test_solver_counter_contract;
  ]
