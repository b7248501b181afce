type transfer = {
  t_ss : float;
  t_ps : float;
  t_sr : float;
  t_pr : float;
  t_n : float;
}

type processing = { alpha : float; tau : float }

type t = {
  transfer : transfer;
  table : (Mdg.Graph.kernel, processing) Hashtbl.t;
}

let check_transfer tr =
  let nonneg name v =
    if v < 0.0 || not (Float.is_finite v) then
      invalid_arg
        (Printf.sprintf "Params: transfer parameter %s is negative or not finite"
           name)
  in
  nonneg "t_ss" tr.t_ss;
  nonneg "t_ps" tr.t_ps;
  nonneg "t_sr" tr.t_sr;
  nonneg "t_pr" tr.t_pr;
  nonneg "t_n" tr.t_n

let make ~transfer =
  check_transfer transfer;
  { transfer; table = Hashtbl.create 16 }

let transfer t = t.transfer

let check_processing { alpha; tau } =
  if alpha < 0.0 || alpha > 1.0 || not (Float.is_finite alpha) then
    invalid_arg "Params.set_processing: alpha outside [0,1]";
  if tau < 0.0 || not (Float.is_finite tau) then
    invalid_arg "Params.set_processing: tau negative or not finite"

let set_processing t kernel proc =
  (match kernel with
  | Mdg.Graph.Synthetic _ | Mdg.Graph.Dummy ->
      invalid_arg "Params.set_processing: synthetic/dummy kernels are implicit"
  | Mdg.Graph.Matrix_init _ | Mdg.Graph.Matrix_add _ | Mdg.Graph.Matrix_multiply _ -> ());
  check_processing proc;
  Hashtbl.replace t.table kernel proc

let processing t kernel =
  match kernel with
  | Mdg.Graph.Synthetic { alpha; tau } -> { alpha; tau }
  | Mdg.Graph.Dummy -> { alpha = 0.0; tau = 0.0 }
  | Mdg.Graph.Matrix_init _ | Mdg.Graph.Matrix_add _ | Mdg.Graph.Matrix_multiply _ -> (
      match Hashtbl.find_opt t.table kernel with
      | Some p -> p
      | None -> raise Not_found)

let known_kernels t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort compare

(* The key holds every constant that enters a cost expression: the five
   transfer parameters and the registered per-kernel Amdahl pairs, in
   the deterministic [known_kernels] order and preceded by their count.
   Two parameter sets with equal keys therefore produce identical
   objectives on the same graph, which is what makes the key a sound
   plan-cache key component. *)
let add_key b t =
  let float x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  let tr = t.transfer in
  List.iter float [ tr.t_ss; tr.t_ps; tr.t_sr; tr.t_pr; tr.t_n ];
  let kernels = known_kernels t in
  Buffer.add_int64_le b (Int64.of_int (List.length kernels));
  List.iter
    (fun k ->
      let { alpha; tau } = Hashtbl.find t.table k in
      Mdg.Graph.add_kernel_key b k;
      float alpha;
      float tau)
    kernels

(* Table 2 of the paper: microsecond/nanosecond constants converted to
   seconds. *)
let cm5_transfer =
  {
    t_ss = 777.56e-6;
    t_ps = 486.98e-9;
    t_sr = 465.58e-6;
    t_pr = 426.25e-9;
    t_n = 0.0;
  }

let cm5 () =
  let t = make ~transfer:cm5_transfer in
  (* Table 1 of the paper. *)
  set_processing t (Mdg.Graph.Matrix_add 64) { alpha = 0.067; tau = 3.73e-3 };
  set_processing t (Mdg.Graph.Matrix_multiply 64) { alpha = 0.121; tau = 298.47e-3 };
  t

let pp_transfer fmt tr =
  Format.fprintf fmt
    "{t_ss=%.2f us; t_ps=%.2f ns; t_sr=%.2f us; t_pr=%.2f ns; t_n=%.2f ns}"
    (tr.t_ss *. 1e6) (tr.t_ps *. 1e9) (tr.t_sr *. 1e6) (tr.t_pr *. 1e9)
    (tr.t_n *. 1e9)

let pp_processing fmt p =
  Format.fprintf fmt "{alpha=%.1f%%; tau=%.2f ms}" (p.alpha *. 100.0)
    (p.tau *. 1e3)
