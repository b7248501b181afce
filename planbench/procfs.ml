(* Readings from /proc that give a run its machine context. *)

type cpu = { total : int; steal : int }

(* The aggregate "cpu" line of /proc/stat: user nice system idle iowait
   irq softirq steal [guest guest_nice].  Guest time is already counted
   in user time, so the total is the sum of the first eight fields. *)
let parse_cpu stat =
  let line =
    List.find_opt
      (fun l -> String.length l > 4 && String.sub l 0 4 = "cpu ")
      (String.split_on_char '\n' stat)
  in
  match line with
  | None -> None
  | Some l -> (
      let fields =
        List.filter (fun s -> s <> "") (String.split_on_char ' ' l) |> List.tl
      in
      match List.map int_of_string_opt fields with
      | Some user :: Some nice :: Some system :: Some idle :: Some iowait
        :: Some irq :: Some softirq :: Some steal :: _ ->
          Some
            {
              total = user + nice + system + idle + iowait + irq + softirq + steal;
              steal;
            }
      | _ -> None)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let read_cpu () = Option.bind (read_file "/proc/stat") parse_cpu

(* Share of CPU time stolen by the hypervisor between two readings. *)
let steal_share ~before ~after =
  let dt = after.total - before.total in
  if dt <= 0 then 0.0 else float_of_int (after.steal - before.steal) /. float_of_int dt

(* Peak resident set size (VmHWM) of a process, in kB. *)
let vm_hwm_kb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  Option.bind (read_file path) (fun status ->
      List.find_map
        (fun l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
          | _ -> None)
        (String.split_on_char '\n' status))
