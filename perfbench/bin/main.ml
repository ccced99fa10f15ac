(* The FEAM benchmark's command line.

     main.exe --workload matrix|serve-mixed|drift --seed N --seconds S
              --trace 0|1
     main.exe --pin

   Run from the root of a checkout: the metric list is read from
   BENCHMARK.json, and the pinned data from (and --pin writes it to)
   perfbench/data.

   A run prints progress on stderr and, as its last stdout line, one
   JSON object: {"correct", "attempted", "failed", "metrics"}.  Untraced
   runs (--trace 0) report the end-to-end metrics, traced runs the
   per-layer ones, as BENCHMARK.json lists them.  --pin regenerates the pinned data the
   workloads check against. *)

open Feam_perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload matrix|serve-mixed|drift --seed N --seconds S \
     --trace 0|1\n       main.exe --pin";
  exit 2

type args = {
  workload : string option;
  seed : int;
  seconds : int;
  trace : bool;
  pin : bool;
}

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = Some w } rest
    | "--seed" :: n :: rest -> go { a with seed = int_of_string n } rest
    | "--seconds" :: n :: rest -> go { a with seconds = int_of_string n } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--pin" :: rest -> go { a with pin = true } rest
    | _ -> usage ()
  in
  try
    go
      { workload = None; seed = 1; seconds = 25; trace = false; pin = false }
      (List.tl (Array.to_list argv))
  with Failure _ -> usage ()

module Json = Feam_util.Json

(* The (name, unit) pairs BENCHMARK.json lists under [key]
   ("end_to_end" or "per_layer"): the metrics a run prints. *)
let listed_metrics key =
  let bad why = failwith ("BENCHMARK.json: " ^ why) in
  let json =
    match Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> bad e
  in
  match Json.member key json with
  | Some (Json.List l) ->
    List.map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.Str n), Some (Json.Str u) -> (n, u)
        | _ -> bad ("a metric under " ^ key ^ " lacks its name or unit"))
      l
  | _ -> bad ("no list under " ^ key)

let data = Filename.concat "perfbench" "data"

let pinned_path = Filename.concat data "matrix_verdicts.tsv"

let removals_path = Filename.concat data "serve_removals.tsv"

(* The Table II world's removal menu: per site, the loader-visible
   libraries a remove-lib write may draw. *)
let removal_menu () =
  Feam_evalharness.Sites.build_all Matrix_wl.params
  |> List.concat_map (fun site ->
         Feam_evalharness.Driftrun.removal_candidates [ site ]
         |> List.map (fun lib -> Feam_sysmodel.Site.name site ^ "\t" ^ lib ^ "\n"))
  |> String.concat ""

let pin () =
  Pinned.save pinned_path (Matrix_wl.pin ());
  Out_channel.with_open_bin removals_path (fun oc ->
      output_string oc (removal_menu ()))

(* The last stdout line.  Values keep every digit they were measured
   with. *)
let render (r : Run.t) names =
  let metric (name, unit) =
    let value =
      match List.assoc_opt name r.Run.metrics with
      | Some v when Float.is_finite v -> v
      | Some _ | None -> 0.0
    in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.Run.correct r.Run.attempted r.Run.failed
    (String.concat ", " (List.map metric names))

let () =
  let a = parse Sys.argv in
  if a.pin then pin ()
  else begin
    let names = listed_metrics (if a.trace then "per_layer" else "end_to_end") in
    let pinned = Pinned.load pinned_path in
    let candidates =
      Script.parse_candidates
        (In_channel.with_open_bin removals_path In_channel.input_all)
    in
    let seed = a.seed and seconds = max 1 a.seconds in
    (* A traced run replays its inputs untraced, then traced, and each
       replay gets its share of the time: a half, or a third on drift,
       which also runs Driftrun.run itself to check the replays. *)
    let half = max 1 (seconds / 2) and third = max 1 (seconds / 3) in
    let result =
      match (a.workload, a.trace) with
      | Some "matrix", false -> Matrix_wl.untraced ~seed ~seconds ~pinned
      | Some "matrix", true -> Matrix_wl.traced ~seed ~seconds:half ~pinned
      | Some "serve-mixed", false -> Serve_wl.untraced ~seed ~seconds ~pinned ~candidates
      | Some "serve-mixed", true ->
        Serve_wl.traced ~seed ~seconds:half ~pinned ~candidates
      | Some "drift", false -> Drift_wl.untraced ~seed ~seconds
      | Some "drift", true -> Drift_wl.traced ~seed ~seconds:third
      | _ -> usage ()
    in
    print_endline (render result names)
  end
