(* The matrix workload: repeated Migrate.run_all passes over every cell
   of the Table II fleet and the NPB+SPEC corpus, each scored against
   the pinned verdict table.  The world is the paper's (default
   parameters); the seed only orders binaries and sites within each
   pass, which the verdicts must not depend on. *)

module Migrate = Feam_evalharness.Migrate
module Params = Feam_evalharness.Params
module Sites = Feam_evalharness.Sites
module Testset = Feam_evalharness.Testset
module Prng = Feam_util.Prng

let params = Params.default

let benchmarks () = Feam_suites.Npb.all @ Feam_suites.Specmpi.all

let build_world () =
  let sites = Sites.build_all params in
  (sites, Testset.build params sites (benchmarks ()))

let shuffle ~seed ~pass key l =
  Script.shuffle (Prng.of_key ~seed (Printf.sprintf "perfbench/matrix/%s/%d" key pass)) l

type pass = {
  rows : Pinned.row list;  (** sorted *)
  seconds : float;
  failed : int;
  basic_correct : int;
  extended_correct : int;
}

(* One run_all pass in seeded order.  A pass that raises fails every
   pinned cell. *)
let run_pass ~seed ~pinned ~index (sites, binaries) =
  let sites = shuffle ~seed ~pass:index "sites" sites in
  let binaries = shuffle ~seed ~pass:index "binaries" binaries in
  match Run.time (fun () -> Migrate.run_all params sites binaries) with
  | migrations, seconds ->
    let rows = Pinned.sort (List.map Pinned.of_migration migrations) in
    let count p = List.length (List.filter p migrations) in
    { rows; seconds; failed = Pinned.failures ~pinned rows;
      basic_correct = count Migrate.basic_correct;
      extended_correct = count Migrate.extended_correct }
  | exception e ->
    Printf.eprintf "matrix pass %d raised %s\n%!" index (Printexc.to_string e);
    { rows = []; seconds = 0.0; failed = List.length pinned; basic_correct = 0;
      extended_correct = 0 }

(* About 2.5 s per pass: [seconds] sets a fixed pass count, so the
   work (and the heap it leaves) does not depend on the host's speed. *)
let passes_for ~seconds = max 3 (seconds * 2 / 5)

(* Set-up samples: the first world is the one the passes use; the rest
   are built and dropped after the peak heap is read, each after a full
   major collection.  Building them between passes instead would
   triple the peak heap (18 MB to 58 MB on a 10 s run).  A build takes
   about 0.1 s, so one sample is easily disturbed: the median over many
   is what holds still. *)
let setup_samples = 25

let untraced ~seed ~seconds ~pinned =
  let world, first_setup = Run.time build_world in
  let n = passes_for ~seconds in
  let passes =
    List.init n (fun i -> { (run_pass ~seed ~pinned ~index:i world) with rows = [] })
  in
  let peak = Run.peak_heap_mb () in
  let more =
    List.init (setup_samples - 1) (fun _ ->
        Gc.full_major ();
        snd (Run.time build_world))
  in
  let cells = List.length pinned in
  let attempted = cells * n in
  let failed = List.fold_left (fun acc p -> acc + p.failed) 0 passes in
  let total = List.fold_left (fun acc p -> acc +. p.seconds) 0.0 passes in
  {
    Run.correct = failed = 0;
    attempted;
    failed;
    metrics =
      [
        ("setup_s", Stats.median_of_list (first_setup :: more));
        ("peak_heap_mb", peak);
        ("ops_per_s", Run.ratio (float_of_int attempted) total);
        ( "op_p50_us",
          Stats.median_of_list
            (List.map (fun p -> p.seconds /. float_of_int cells *. 1e6) passes) );
      ];
  }

(* Traced: [k] untraced passes, then the same [k] passes (same seeded
   orders) under the cost ledger.  Both must reproduce the pinned table
   and each other. *)
let traced ~seed ~seconds ~pinned =
  let k = passes_for ~seconds in
  let world = build_world () in
  let plain = List.init k (fun i -> run_pass ~seed ~pinned ~index:i world) in
  let ledger = Run.new_ledger () in
  let mark = Run.gc_mark () in
  let traced =
    Run.with_ledger ledger (fun () ->
        List.init k (fun i -> run_pass ~seed ~pinned ~index:i world))
  in
  let cells = List.length pinned in
  let sum f l = List.fold_left (fun acc p -> acc +. f p) 0.0 l in
  let failed =
    List.fold_left (fun acc p -> acc + p.failed) 0 (plain @ traced)
  in
  let same = List.for_all2 (fun a b -> a.rows = b.rows) plain traced in
  if not same then prerr_endline "matrix: traced verdicts differ from untraced";
  let plain_s = sum (fun p -> p.seconds) plain in
  let traced_s = sum (fun p -> p.seconds) traced in
  let layers = Run.layer_metrics ledger ~mark ~cells:(cells * k) in
  let attributed = List.assoc "attributed_ms" layers in
  let first = List.hd plain in
  let pct n = 100.0 *. Run.ratio (float_of_int n) (float_of_int cells) in
  {
    Run.correct = failed = 0 && same;
    attempted = 2 * k * cells;
    failed;
    metrics =
      Run.world_metrics params @ layers
      @ [
          ("matrix.basic_accuracy_pct", pct first.basic_correct);
          ("matrix.extended_accuracy_pct", pct first.extended_correct);
          ("unattributed_ms", (traced_s *. 1e3) -. attributed);
          ("trace.overhead_pct", 100.0 *. (Run.ratio traced_s plain_s -. 1.0));
          ("failed_share", Run.share failed (2 * k * cells));
        ];
  }

(* The table [untraced] scores against, from one pass over the
   default-order world. *)
let pin () =
  let sites, binaries = build_world () in
  List.map Pinned.of_migration (Migrate.run_all params sites binaries)
