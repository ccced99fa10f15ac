(* Simulated wall-clock accounting.  Site operations (tool invocations,
   compiles, batch-queue waits, probe runs) charge seconds to a clock so
   that the evaluation can report how long FEAM phases take (paper §VI.C:
   both phases always completed in under five minutes). *)

(* [acc] is a one-slot float array so charging never boxes; [log]
   keeps every charge, newest first, on a recording clock. *)
type t = { acc : Float.Array.t; log : float list ref option }

let create () = { acc = Float.Array.make 1 0.0; log = None }

let recording () = { acc = Float.Array.make 1 0.0; log = Some (ref []) }

let elapsed t = Float.Array.get t.acc 0

let charge t seconds =
  if seconds < 0.0 then invalid_arg "Sim_clock.charge: negative duration";
  Float.Array.set t.acc 0 (elapsed t +. seconds);
  match t.log with Some l -> l := seconds :: !l | None -> ()

let charges t = match t.log with Some l -> List.rev !l | None -> []

let reset t = Float.Array.set t.acc 0 0.0

(* Render "3m42s" style durations. *)
let to_string t =
  let s = elapsed t in
  let minutes = int_of_float (s /. 60.0) in
  let rest = s -. (float_of_int minutes *. 60.0) in
  if minutes > 0 then Printf.sprintf "%dm%02.0fs" minutes rest
  else Printf.sprintf "%.1fs" rest
