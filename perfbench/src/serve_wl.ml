(* The serve-mixed workload: a resident engine over the full Table II
   matrix, driven through the daemon's transport-free loop by one
   closed-loop client replaying the seeded script (see [Script]).  The
   world is the paper's; the seed chooses the script. *)

module Engine = Feam_serve.Engine
module Daemon = Feam_serve.Daemon
module Protocol = Feam_serve.Protocol
module Json = Feam_util.Json

let world_seed = Feam_evalharness.Params.default.Feam_evalharness.Params.seed

let create () =
  Engine.create ~specs:Feam_evalharness.Sites.specs
    ~benchmarks:(Feam_suites.Npb.all @ Feam_suites.Specmpi.all)
    ~seed:world_seed ()

let setup_samples = 3

type kind = Predict | Batch | Update | Crosscheck

let kind_of line =
  match Protocol.parse line with
  | Ok (Protocol.Predict _) -> Predict
  | Ok (Protocol.Predict_batch _) -> Batch
  | Ok (Protocol.Update_evidence _) -> Update
  | Ok Protocol.Crosscheck -> Crosscheck
  | Ok _ | Error _ -> invalid_arg ("serve script: unexpected line " ^ line)

let script ~seed ~seconds ~pinned ~candidates =
  let cells = List.map (fun r -> (r.Pinned.binary, r.Pinned.target)) pinned in
  Array.of_list (Script.generate ~seed ~seconds ~cells ~candidates)

type pass = {
  responses : string array;
  latency : float array;  (** seconds, per request *)
  wall : float;
}

let count_kind kinds k = Array.fold_left (fun n x -> if x = k then n + 1 else n) 0 kinds

(* Latencies of one kind, in script order, as a sorted recorder. *)
let latencies kinds pass k =
  let r = Stats.recorder (count_kind kinds k) in
  Array.iteri (fun i x -> if x = k then Stats.record r pass.latency.(i)) kinds;
  r

(* The untraced loop: each request is timed from the loop reading its
   line to the loop writing its response. *)
let serve engine lines =
  let n = Array.length lines in
  let responses = Array.make n "" and latency = Array.make n 0.0 in
  let i = ref 0 and t_read = ref 0L in
  let next () =
    if !i >= n then None
    else begin
      t_read := Stats.now_ns ();
      Some lines.(!i)
    end
  in
  let write response =
    latency.(!i) <- Stats.seconds_since !t_read;
    (* The loop appends the newline; Engine.handle's line has none. *)
    responses.(!i) <- String.sub response 0 (String.length response - 1);
    incr i
  in
  let t0 = Stats.now_ns () in
  ignore (Daemon.serve_lines engine ~next ~write : Daemon.outcome);
  { responses; latency; wall = Stats.seconds_since t0 }

let field name response =
  match Json.parse response with Ok j -> Json.member name j | Error _ -> None

let is_ok response = field "ok" response = Some (Json.Bool true)

(* A request fails when its response says ok:false; the crosscheck also
   fails when the resident table no longer matches a cold pass. *)
let failures kinds responses =
  let failed = ref 0 in
  Array.iteri
    (fun i r ->
      let bad =
        (not (is_ok r))
        || (kinds.(i) = Crosscheck && field "matches" r <> Some (Json.Bool true))
      in
      if bad then incr failed)
    responses;
  !failed

(* Throughput over the script without its closing crosscheck: the
   crosscheck is the output check, a cold pass over every cell. *)
let ops_per_s kinds pass =
  let check = ref 0.0 in
  Array.iteri (fun i k -> if k = Crosscheck then check := !check +. pass.latency.(i)) kinds;
  let requests = Array.length kinds - count_kind kinds Crosscheck in
  Run.ratio (float_of_int requests) (pass.wall -. !check)

let untraced ~seed ~seconds ~pinned ~candidates =
  let lines = script ~seed ~seconds ~pinned ~candidates in
  let kinds = Array.map kind_of lines in
  let engine, first_setup = Run.time create in
  let pass = serve engine lines in
  Engine.close engine;
  let peak = Run.peak_heap_mb () in
  (* Further set-ups after the peak is read, so discarded engines never
     inflate it. *)
  let more =
    List.init (setup_samples - 1) (fun _ ->
        Gc.full_major ();
        let e, s = Run.time create in
        Engine.close e;
        s)
  in
  let failed = failures kinds pass.responses in
  let predicts = Stats.sorted (latencies kinds pass Predict) in
  {
    Run.correct = failed = 0;
    attempted = Array.length lines;
    failed;
    metrics =
      [
        ("setup_s", Stats.median_of_list (first_setup :: more));
        ("peak_heap_mb", peak);
        ("ops_per_s", ops_per_s kinds pass);
        ("op_p50_us", Stats.median predicts *. 1e6);
      ];
  }

(* The traced pass replays the same script on a fresh engine, calling
   Protocol.parse and Engine.handle directly: parse and predict handling
   are timed into recorders (a span per microsecond-sized request would
   cost more than the request), writes and the crosscheck run under
   ledger stages so the pipeline's own stages nest inside them. *)
type traced = {
  t_responses : string array;
  t_wall : float;
  parse : Stats.recorder;
  handle_predict : Stats.recorder;
  handle_other : float;  (** seconds in predict-batch handling *)
  update_reeval_ms : float list;
  update_total_ms : float list;
}

let phases_ms ledger = Run.total_ms ledger "phases.source" +. Run.total_ms ledger "phases.target"

let replay_traced ledger engine lines kinds =
  let n = Array.length lines in
  let responses = Array.make n "" in
  let parse = Stats.recorder n in
  let handle_predict = Stats.recorder (count_kind kinds Predict) in
  let handle_other = ref 0.0 in
  let reeval = ref [] and totals = ref [] in
  let t0 = Stats.now_ns () in
  Array.iteri
    (fun i line ->
      let req, s = Run.time (fun () -> Protocol.parse line) in
      Stats.record parse s;
      let req = match req with Ok r -> r | Error _ -> assert false in
      responses.(i) <-
        (match kinds.(i) with
        | Predict ->
          let r, s = Run.time (fun () -> Engine.handle engine req) in
          Stats.record handle_predict s;
          r
        | Batch ->
          let r, s = Run.time (fun () -> Engine.handle engine req) in
          handle_other := !handle_other +. s;
          r
        | Update ->
          let before = phases_ms ledger and total0 = Run.total_ms ledger "serve.update" in
          let r = Run.span "serve.update" (fun () -> Engine.handle engine req) in
          reeval := (phases_ms ledger -. before) :: !reeval;
          totals := (Run.total_ms ledger "serve.update" -. total0) :: !totals;
          r
        | Crosscheck -> Run.span "serve.crosscheck" (fun () -> Engine.handle engine req)))
    lines;
  { t_responses = responses; t_wall = Stats.seconds_since t0; parse; handle_predict;
    handle_other = !handle_other; update_reeval_ms = !reeval; update_total_ms = !totals }

let mean l = Run.ratio (List.fold_left ( +. ) 0.0 l) (float_of_int (List.length l))

let traced ~seed ~seconds ~pinned ~candidates =
  let lines = script ~seed ~seconds ~pinned ~candidates in
  let kinds = Array.map kind_of lines in
  let engine = create () in
  let plain = serve engine lines in
  Engine.close engine;
  Gc.full_major ();
  let engine = create () in
  let ledger = Run.new_ledger () in
  let mark = Run.gc_mark () in
  let t = Run.with_ledger ledger (fun () -> replay_traced ledger engine lines kinds) in
  Engine.close engine;
  let same = plain.responses = t.t_responses in
  (if not same then
     let i = ref 0 in
     while plain.responses.(!i) = t.t_responses.(!i) do incr i done;
     Printf.eprintf "serve: traced response %d differs from untraced\n  %s\n  %s\n" !i
       plain.responses.(!i) t.t_responses.(!i));
  let failed = failures kinds plain.responses + failures kinds t.t_responses in
  let updates =
    List.filter_map
      (fun (k, r) -> if k = Update then Some r else None)
      (List.combine (Array.to_list kinds) (Array.to_list plain.responses))
  in
  let per_update f = mean (List.map (fun r -> float_of_int (f r)) updates) in
  let int_field name r = match field name r with Some (Json.Int n) -> n | _ -> 0 in
  let flips r = match field "flips" r with Some (Json.List l) -> List.length l | _ -> 0 in
  let reevaluated = List.fold_left (fun acc r -> acc + int_field "cells_reevaluated" r) 0 updates in
  let flipped = List.fold_left (fun acc r -> acc + flips r) 0 updates in
  let cells = reevaluated + count_kind kinds Crosscheck * List.length pinned in
  let layers = Run.layer_metrics ledger ~mark ~cells in
  let attributed =
    List.assoc "attributed_ms" layers
    +. ((Stats.sum t.parse +. Stats.sum t.handle_predict +. t.handle_other) *. 1e3)
  in
  let predicts = Stats.sorted (latencies kinds plain Predict) in
  let tail =
    match Stats.tail_percentile (Array.length predicts) with
    | Some p -> Stats.quantile predicts p *. 1e6
    | None -> 0.0
  in
  let update_lat = Stats.sorted (latencies kinds plain Update) in
  let attempted = 2 * Array.length lines in
  {
    Run.correct = failed = 0 && same;
    attempted;
    failed;
    metrics =
      Run.world_metrics Feam_evalharness.Params.default
      @ List.remove_assoc "attributed_ms" layers
      @ [
          ("attributed_ms", attributed);
          ("serve.parse_us", Stats.median (Stats.sorted t.parse) *. 1e6);
          ("serve.handle_predict_us", Stats.median (Stats.sorted t.handle_predict) *. 1e6);
          ("serve.predict_p99_us", tail);
          ("serve.update_p50_ms", Stats.median update_lat *. 1e3);
          ("serve.updates", float_of_int (Array.length update_lat));
          ("serve.update.reeval_ms", mean t.update_reeval_ms);
          ( "serve.update.overhead_ms",
            mean t.update_total_ms -. mean t.update_reeval_ms );
          ("serve.changed_atoms_per_update", per_update (int_field "changed_atoms"));
          ("serve.cells_reevaluated_per_update", per_update (int_field "cells_reevaluated"));
          ("serve.cells_flipped_per_update", per_update flips);
          ("serve.reeval_precision", Run.ratio (float_of_int flipped) (float_of_int reevaluated));
          ("unattributed_ms", (t.t_wall *. 1e3) -. attributed);
          ("trace.overhead_pct", 100.0 *. (Run.ratio t.t_wall plain.wall -. 1.0));
          ("failed_share", Run.share failed attempted);
        ];
  }
