(* Summary statistics for the benchmark's samples. *)

(* A percentile is reported only when at least this many samples lie
   beyond it, so a tail figure never rests on a handful of requests. *)
let min_beyond = 10

(* Nearest-rank percentile: the smallest sample such that [pct] per cent
   of the samples are at or below it.  Failed requests are passed in as
   [infinity], so they count as missing any latency limit. *)
let percentile ~pct samples =
  let n = Array.length samples in
  if pct < 1 || pct > 100 then invalid_arg "Stats.percentile: pct outside [1, 100]";
  let rank = Int.max 1 (((pct * n) + 99) / 100) in
  if n - rank < min_beyond then
    Error
      (Printf.sprintf "p%d of %d samples has %d beyond it (need %d)" pct n
         (Int.max 0 (n - rank)) min_beyond)
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    Ok sorted.(rank - 1)
  end

let median samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0

let geomean samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.geomean: no samples";
  exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 samples /. float_of_int n)

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 samples /. float_of_int n
