(* Seeded request lists for the three workloads.

   Every list is a pure function of (seed, seconds): the same pair gives
   byte-identical request lines, so the work and the plan-quality
   metrics of a run repeat exactly.  [seconds] only sets the list
   length, through a fixed per-workload request count per second. *)

module Json = Server.Json
module Protocol = Server.Protocol

(* The divide-combine shapes of every workload: 33 to 81 nodes. *)
let depth3_spec = Workgen.spec_of_string_exn "depth=3,branch=3,cutoff=0.15,wiring=0.3"

(* The pinned large workgen row of bench scale: 519 nodes. *)
let pinned_spec = Workgen.spec_of_string_exn "depth=5,branch=3,cutoff=0.2"

let pinned_seed = 1994

(* Node-count mix of the depth-3 shapes: node-count bins and their
   share per mille, as 4000 draws of the spec give it (draws under 33
   nodes left out).  Every list holds this mix, so lists for different
   seeds cost about the same to plan and differ mainly in wiring and
   cost constants.  The rarest bin holds a tenth of the draws, which
   keeps the number of draws a list needs steady. *)
let size_mix = [ (33, 45, 113); (51, 57, 285); (63, 69, 228); (75, 75, 230); (81, 81, 145) ]

(* Split [count] over [size_mix] by largest remainder. *)
let quotas count =
  let total = List.fold_left (fun acc (_, _, w) -> acc + w) 0 size_mix in
  let base = List.mapi (fun i (_, _, w) -> (i, count * w / total, count * w mod total)) size_mix in
  let short = count - List.fold_left (fun acc (_, q, _) -> acc + q) 0 base in
  let by_remainder =
    List.stable_sort (fun (_, _, r1) (_, _, r2) -> compare r2 r1) base
    |> List.mapi (fun rank (i, q, _) -> (i, if rank < short then q + 1 else q))
  in
  List.mapi (fun i _ -> List.assoc i by_remainder) size_mix

let bin_of nodes =
  let rec find i = function
    | [] -> None
    | (lo, hi, _) :: rest -> if nodes >= lo && nodes <= hi then Some i else find (i + 1) rest
  in
  find 0 size_mix

let rng ~seed ~salt = Random.State.make [| seed; salt |]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [count] depth-3 shapes holding the size mix, with structural hashes
   distinct from each other and from [taken] (which they are added
   to). *)
let shapes rng ~count ~taken =
  let left = Array.of_list (quotas count) in
  let rec draw acc k =
    if k = count then List.rev acc
    else
      let g = Workgen.generate depth3_spec ~seed:(Random.State.bits rng) in
      let h = Mdg.Graph.structural_hash g in
      match bin_of (Mdg.Graph.num_nodes g) with
      | Some b when left.(b) > 0 && not (Hashtbl.mem taken h) ->
          left.(b) <- left.(b) - 1;
          Hashtbl.replace taken h ();
          draw (g :: acc) (k + 1)
      | _ -> draw acc k
  in
  draw [] 0

(* Synthetic kernels carry their own Amdahl constants, so a workgen
   request needs only the transfer constants. *)
let base_params () = Costmodel.Params.make ~transfer:Costmodel.Params.cm5_transfer

let line ~id ~params g ~procs =
  Json.to_string (Protocol.encode_plan_request ~id:(Json.int id) ~params g ~procs)

(* ------------------------------------------------------------------ *)
(* plan-cold                                                           *)
(* ------------------------------------------------------------------ *)

type item = {
  label : string;
  params : Costmodel.Params.t;
  graph : Mdg.Graph.t;
  procs : int;
  paper : bool;  (** one of the paper's two test programs *)
}

(* plan-cold runs in rounds of equal make-up: every round plans the
   fixed programs once plus its own slice of depth-3 shapes, each at two
   machine sizes, so per-round figures can be compared and their median
   taken.  A round holds at least 100 plans, enough for a p90. *)
let cold_rounds = 4

let cold_shapes_per_second = 18

let min_cold_shapes_per_round = 45

let paper_kernels =
  List.sort_uniq compare
    (Kernels.Complex_mm.kernels ~n:64
    @ Kernels.Strassen_mdg.kernels ~n:128
    @ Kernels.Strassen_mdg.kernels_recursive ~levels:2 ~n:128
    @ Kernels.Strassen_mdg.kernels_recursive ~levels:3 ~n:128)

let plan_cold ~seed ~seconds =
  let calibrated, _, _ =
    Machine.Measure.calibrate
      (Machine.Ground_truth.cm5_like ())
      ~procs:[ 1; 2; 4; 8; 16; 32; 64 ] paper_kernels
  in
  let base = base_params () in
  let at procs_list ~paper label params g =
    List.map (fun procs -> { label; params; graph = g; procs; paper }) procs_list
  in
  let complex, _ = Kernels.Complex_mm.graph ~n:64 () in
  let strassen, _ = Kernels.Strassen_mdg.graph ~n:128 () in
  let fixed =
    List.concat
      [
        at [ 16; 32; 64 ] ~paper:true "complex:64" calibrated complex;
        at [ 16; 32; 64 ] ~paper:true "strassen:128" calibrated strassen;
        at [ 64 ] ~paper:false "strassen:2" calibrated
          (Kernels.Strassen_mdg.graph_recursive ~levels:2 ~n:128);
        at [ 64 ] ~paper:false "strassen:3" calibrated
          (Kernels.Strassen_mdg.graph_recursive ~levels:3 ~n:128);
        at [ 16; 64 ] ~paper:false "pinned:1994" base
          (Workgen.generate pinned_spec ~seed:pinned_seed);
      ]
  in
  let per_round =
    Int.max min_cold_shapes_per_round (cold_shapes_per_second * seconds / cold_rounds)
  in
  (* Deal the shapes to the rounds in order of size, so every round gets
     the same size mix. *)
  let wg =
    shapes (rng ~seed ~salt:1) ~count:(per_round * cold_rounds) ~taken:(Hashtbl.create 64)
    |> List.mapi (fun i g -> (i, g))
    |> List.stable_sort (fun (_, a) (_, b) ->
           compare (Mdg.Graph.num_nodes a) (Mdg.Graph.num_nodes b))
    |> List.mapi (fun rank (i, g) ->
           (rank mod cold_rounds, at [ 16; 64 ] ~paper:false (Printf.sprintf "workgen#%d" i) base g))
  in
  Array.init cold_rounds (fun r ->
      fixed @ List.concat_map (fun (round, items) -> if round = r then items else []) wg)

let item_line i (it : item) = line ~id:i ~params:it.params it.graph ~procs:it.procs

(* ------------------------------------------------------------------ *)
(* serve-hit and serve-drift                                           *)
(* ------------------------------------------------------------------ *)

(* Request lines per connection: [warmup] is sent before timing starts,
   [timed] in the closed loop, split into [rounds] consecutive rounds of
   at least 100 requests. *)
type serve = { warmup : string array array; timed : string array array; rounds : int }

let connections = 2

(* serve-hit: 32 shapes at two machine sizes are 64 keys, which fit the
   cache's default bounds (64 tapes, 512 exact entries). *)
let hit_shapes = 32

let hit_requests_per_second = 1000

let serve_hit ~seed ~seconds =
  let params = base_params () in
  let keys =
    shapes (rng ~seed ~salt:2) ~count:hit_shapes ~taken:(Hashtbl.create 64)
    |> List.concat_map (fun g -> [ (g, 16); (g, 64) ])
    |> List.mapi (fun id (g, procs) -> line ~id ~params g ~procs)
    |> Array.of_list
  in
  let per_conn = hit_requests_per_second * seconds in
  let timed =
    Array.init connections (fun c ->
        let order = Array.init (Array.length keys) Fun.id in
        shuffle (rng ~seed ~salt:(10 + c)) order;
        Array.init per_conn (fun j -> keys.(order.(j mod Array.length order))))
  in
  { warmup = Array.init connections (fun c -> if c = 0 then keys else [||]); timed; rounds = 10 }

(* serve-drift: every connection owns its shapes.  Each timed request
   scales the five transfer constants by its own factors in [0.95,
   1.05] and asks for 16, 32 or 64 processors. *)
let drift_shapes_per_conn = 32

let drift_requests_per_second = 30

let drift_rounds = 5

(* The five factors are drawn in a fixed order. *)
let jittered rng =
  let base = Costmodel.Params.cm5_transfer in
  let j x = x *. (0.95 +. (0.1 *. Random.State.float rng 1.0)) in
  let t_ss = j base.t_ss in
  let t_ps = j base.t_ps in
  let t_sr = j base.t_sr in
  let t_pr = j base.t_pr in
  let t_n = j base.t_n in
  Costmodel.Params.make ~transfer:{ t_ss; t_ps; t_sr; t_pr; t_n }

let serve_drift ~seed ~seconds =
  let base = base_params () in
  let taken = Hashtbl.create 64 in
  let owned =
    Array.init connections (fun c ->
        Array.of_list
          (shapes (rng ~seed ~salt:(20 + c)) ~count:drift_shapes_per_conn ~taken))
  in
  let per_conn = Int.max (50 * drift_rounds) (drift_requests_per_second * seconds) in
  let timed =
    Array.init connections (fun c ->
        let rng = rng ~seed ~salt:(30 + c) in
        let own = owned.(c) in
        let k = Array.length own in
        let order = Array.init k Fun.id in
        Array.init per_conn (fun j ->
            (* Visit the shapes in a fresh random order each pass, so
               every shape gets the same number of requests. *)
            if j mod k = 0 then shuffle rng order;
            let g = own.(order.(j mod k)) in
            let procs = [| 16; 32; 64 |].(Random.State.int rng 3) in
            line ~id:j ~params:(jittered rng) g ~procs))
  in
  let warmup =
    Array.map (Array.mapi (fun id g -> line ~id ~params:base g ~procs:16)) owned
  in
  { warmup; timed; rounds = drift_rounds }
