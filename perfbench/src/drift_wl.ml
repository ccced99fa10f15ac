(* The drift workload: Driftrun.run over the full Table II fleet (the
   paper's world, default parameters: the same 803 cells as the matrix
   and serve workloads), replaying that world's seeded perturbation
   sequence.  The benchmark seed sets how many epochs are replayed,
   around [seconds] of them.  Epoch boundaries are timed from outside
   through the progress callback. *)

module Driftrun = Feam_evalharness.Driftrun
module Params = Feam_evalharness.Params
module Sites = Feam_evalharness.Sites
module Testset = Feam_evalharness.Testset
module Snapshot = Feam_drift.Snapshot
module Invalidate = Feam_drift.Invalidate
module Site = Feam_sysmodel.Site

let world_seed = Params.default.Params.seed

(* About one second per epoch on the Table II fleet. *)
let epochs_for ~seed ~seconds =
  let draw = Feam_util.Prng.hash_key seed "perfbench/drift/epochs" land max_int in
  max 1 (seconds - 1 + (draw mod 3))

let setup_samples = 3

type sequence = {
  result : Driftrun.t;
  setup : float;  (** start to the epoch-0 callback *)
  boundaries : float array;  (** seconds since start, per epoch callback *)
}

let run_sequence ~epochs =
  let boundaries = Array.make (epochs + 1) 0.0 in
  let seen = ref 0 in
  let t0 = Stats.now_ns () in
  let progress _ =
    if !seen <= epochs then boundaries.(!seen) <- Stats.seconds_since t0;
    incr seen
  in
  let result = Driftrun.run ~progress ~seed:world_seed ~epochs () in
  if !seen <> epochs + 1 then
    failwith (Printf.sprintf "drift: %d progress callbacks for %d epochs" !seen epochs);
  { result; setup = boundaries.(0); boundaries }

exception Baseline_reached of float

(* A set-up sample: a sequence stopped at its epoch-0 callback. *)
let setup_only () =
  let t0 = Stats.now_ns () in
  match
    Driftrun.run ~progress:(fun _ -> raise (Baseline_reached (Stats.seconds_since t0)))
      ~seed:world_seed ~epochs:1 ()
  with
  | _ -> failwith "drift: the baseline callback never ran"
  | exception Baseline_reached s -> s

let epoch_seconds s =
  Array.init (Array.length s.boundaries - 1) (fun k ->
      s.boundaries.(k + 1) -. s.boundaries.(k))

let untraced ~seed ~seconds =
  let epochs = epochs_for ~seed ~seconds in
  let s = run_sequence ~epochs in
  let peak = Run.peak_heap_mb () in
  let ok = s.result.Driftrun.dr_crosscheck = Ok () in
  (match s.result.Driftrun.dr_crosscheck with
  | Error e -> prerr_endline ("drift: " ^ e)
  | Ok () -> ());
  let more =
    List.init (setup_samples - 1) (fun _ ->
        Gc.full_major ();
        setup_only ())
  in
  let per_epoch = epoch_seconds s in
  Array.sort compare per_epoch;
  {
    Run.correct = ok;
    attempted = epochs;
    failed = (if ok then 0 else epochs);
    metrics =
      [
        ("setup_s", Stats.median_of_list (s.setup :: more));
        ("peak_heap_mb", peak);
        ( "ops_per_s",
          Run.ratio (float_of_int epochs) (s.boundaries.(epochs) -. s.boundaries.(0)) );
        ("op_p50_us", Stats.median per_epoch *. 1e6);
      ];
  }

(* -- traced ------------------------------------------------------------- *)

(* Driftrun.run's epoch loop replayed from its public steps, each under
   a ledger stage when [ledger] is given.  Toggle semantics as in
   Driftrun: re-drawing an active perturbation deactivates it.  The
   replay leaves out what Driftrun.run does beyond those steps: the
   possession refresh of each epoch's snapshot (private to Driftrun),
   Invalidate.record_metrics and record_epoch_gauges, the timeline
   entry, and the closing full-pass crosscheck.  Its wall time covers
   the epochs after the baseline. *)
let toggle active p =
  if List.mem p active then
    (List.filter (fun q -> q <> p) active, "undo " ^ Driftrun.perturbation_label p)
  else (active @ [ p ], Driftrun.perturbation_label p)

type epoch = { cells : Snapshot.cell list; affected : int; flips : int }

let replay ?ledger ~epochs () =
  let seed = world_seed in
  let params = { Params.default with Params.seed } in
  let specs = Sites.specs and benchmarks = Feam_suites.Npb.all @ Feam_suites.Specmpi.all in
  Feam_core.Bdc.set_describe_memo ();
  Fun.protect ~finally:Feam_core.Bdc.clear_describe_memo @@ fun () ->
  let sites0, binaries0 = Driftrun.build_world params specs benchmarks [] in
  let candidates = Driftrun.removal_candidates sites0 in
  let site_names = List.map Site.name sites0 in
  let cells0 =
    List.map (fun (b, t) -> Driftrun.predict_cell b t) (Driftrun.all_cells sites0 binaries0)
  in
  let base = Driftrun.snapshot_of_world ~epoch:0 ~seed ~label:"" sites0 binaries0 ~cells:cells0 in
  let mark = Run.gc_mark () in
  let t0 = Stats.now_ns () in
  let rec go k active prev acc =
    if k > epochs then List.rev acc
    else begin
      let p = Driftrun.draw ~seed ~epoch:k ~site_names ~candidates in
      let active, label = toggle active p in
      let sites, binaries =
        Run.span "drift.rebuild" (fun () -> Driftrun.build_world params specs benchmarks active)
      in
      let candidate =
        Run.span "drift.capture" (fun () ->
            Driftrun.snapshot_of_world ~epoch:k ~seed ~label sites binaries
              ~cells:prev.Snapshot.cells)
      in
      let plan = Run.span "drift.invalidate" (fun () -> Invalidate.affected prev candidate) in
      let reevaluated =
        List.map
          (fun (c : Invalidate.cell_id) ->
            let binary =
              List.find
                (fun (b : Testset.binary) -> b.Testset.id = c.Invalidate.ci_binary)
                binaries
            in
            let target = Sites.find_by_name sites c.Invalidate.ci_target in
            Run.span "drift.predict_cell" (fun () -> Driftrun.predict_cell binary target))
          plan.Invalidate.pl_affected
      in
      let cells =
        Run.span "drift.merge" (fun () ->
            Invalidate.merge ~base:prev.Snapshot.cells ~reevaluated)
      in
      let flips = Invalidate.flips ~before:prev.Snapshot.cells ~after:cells in
      let next = Snapshot.normalize { candidate with Snapshot.cells } in
      go (k + 1) active next
        ({ cells = next.Snapshot.cells; affected = List.length reevaluated;
           flips = List.length flips } :: acc)
    end
  in
  let replayed =
    match ledger with
    | Some l -> Run.with_ledger l (fun () -> go 1 [] base [])
    | None -> go 1 [] base []
  in
  (replayed, mark, Stats.seconds_since t0)

(* Three sequences of the same epochs: Driftrun.run itself, whose
   per-epoch tables the replays must reproduce byte for byte, then the
   replay untraced and traced.  The tracing overhead compares the two
   replays, which run the same code. *)
let traced ~seed ~seconds =
  let epochs = epochs_for ~seed ~seconds in
  let plain = run_sequence ~epochs in
  let plain_ok = plain.result.Driftrun.dr_crosscheck = Ok () in
  let doc k cells = Driftrun.cells_doc ~epoch:k ~seed:world_seed cells in
  let plain_tables =
    List.tl plain.result.Driftrun.dr_epochs
    |> List.map (fun (e : Driftrun.epoch_result) -> e.Driftrun.er_snapshot.Snapshot.cells)
  in
  let reproduces replayed =
    List.length plain_tables = List.length replayed
    && List.for_all2
         (fun (k, a) b -> String.equal (doc k a) (doc k b.cells))
         (List.mapi (fun i c -> (i + 1, c)) plain_tables)
         replayed
  in
  Gc.full_major ();
  let untraced, _, untraced_wall = replay ~epochs () in
  Gc.full_major ();
  let ledger = Run.new_ledger () in
  let replayed, mark, wall = replay ~ledger ~epochs () in
  let same = reproduces untraced && reproduces replayed in
  if not same then prerr_endline "drift: replayed epoch tables differ from Driftrun.run's";
  let affected = List.fold_left (fun acc e -> acc + e.affected) 0 replayed in
  let flips = List.fold_left (fun acc e -> acc + e.flips) 0 replayed in
  let cells_total = plain.result.Driftrun.dr_cells_total in
  let layers = Run.layer_metrics ledger ~mark ~cells:affected in
  let per_epoch name = Run.total_ms ledger name /. float_of_int epochs in
  let failed = if plain_ok && same then 0 else epochs in
  let final =
    (List.nth plain.result.Driftrun.dr_epochs epochs).Driftrun.er_snapshot
  in
  {
    Run.correct = plain_ok && same;
    attempted = epochs;
    failed;
    metrics =
      Run.world_metrics Params.default
      @ layers
      @ [
          ("drift.rebuild_ms", per_epoch "drift.rebuild");
          ("drift.capture_ms", per_epoch "drift.capture");
          ("drift.invalidate_ms", per_epoch "drift.invalidate");
          ("drift.reeval_ms", per_epoch "drift.predict_cell");
          ("drift.merge_ms", per_epoch "drift.merge");
          ("drift.snapshot_bytes", float_of_int (String.length (Snapshot.to_jsonl final)));
          ( "drift.reeval_fraction",
            Run.ratio (float_of_int affected) (float_of_int (cells_total * epochs)) );
          ("drift.reeval_precision", Run.ratio (float_of_int flips) (float_of_int affected));
          ("unattributed_ms", (wall *. 1e3) -. List.assoc "attributed_ms" layers);
          ("trace.overhead_pct", 100.0 *. (Run.ratio wall untraced_wall -. 1.0));
          ("failed_share", Run.share failed epochs);
        ];
  }
