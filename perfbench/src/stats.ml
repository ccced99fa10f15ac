(* Clock, latency recorder and order statistics.

   Latencies are read from a nanosecond monotonic clock: a warm predict
   takes a few microseconds, below the resolution of gettimeofday.
   Samples go into arrays sized before the measured loop starts, so
   recording never grows the heap the benchmark reports. *)

let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

type recorder = { samples : float array; mutable len : int }

let recorder capacity = { samples = Array.make (max capacity 1) 0.0; len = 0 }

let record r x =
  if r.len >= Array.length r.samples then
    invalid_arg "Stats.record: recorder is full";
  r.samples.(r.len) <- x;
  r.len <- r.len + 1

let sorted r =
  let a = Array.sub r.samples 0 r.len in
  Array.sort compare a;
  a

let sum r =
  let s = ref 0.0 in
  for i = 0 to r.len - 1 do
    s := !s +. r.samples.(i)
  done;
  !s

(* Nearest-rank quantile of an ascending array, [p] in percent.  The
   rank is rounded up after shaving float noise (99.9% of 10000 must be
   rank 9990, not 9991). *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let rank = int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let median sorted = quantile sorted 50.0

let median_of_list l = median (Array.of_list (List.sort compare l))

(* The highest reported percentile that at least ten samples lie beyond:
   with [n] samples, percentile [p] qualifies when n * (1 - p/100) >= 10.
   Candidates are held in tenths of a percent so the test is exact. *)
let tail_candidates = [ 999; 990; 950; 900; 750; 500 ]

let tail_percentile n =
  List.find_opt (fun p10 -> n * (1000 - p10) >= 10 * 1000) tail_candidates
  |> Option.map (fun p10 -> float_of_int p10 /. 10.0)
