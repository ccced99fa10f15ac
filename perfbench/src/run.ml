(* What one workload run hands back to the command line, and the
   helpers every workload shares: the traced run's cost ledger, its
   readback into layer metrics, and Gc deltas. *)

module Ledger = Feam_obs.Ledger

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let ms_of_ns ns = Int64.to_float ns /. 1e6

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let time f =
  let t0 = Stats.now_ns () in
  let r = f () in
  (r, Stats.seconds_since t0)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let share failed attempted = ratio (float_of_int failed) (float_of_int attempted)

(* -- traced runs ------------------------------------------------------- *)

(* A ledger on the monotonic clock.  The benchmark's own spans are
   ledger stages wrapped around public calls, so the ledger's
   self-cost accounting covers them and the program's stages alike. *)
let new_ledger () = Ledger.create ~clock:Stats.now_ns ()

let with_ledger ledger f =
  Ledger.install ledger;
  Fun.protect ~finally:Ledger.uninstall f

let span = Ledger.with_stage

let find kind ledger name =
  List.find_opt (fun r -> r.Ledger.r_name = name) (Ledger.rollup_by_name ledger kind)

let stage ledger name = find Ledger.Stage ledger name

let calls ledger name =
  match stage ledger name with Some r -> float_of_int r.Ledger.r_calls | None -> 0.0

let total_ms ledger name =
  match stage ledger name with Some r -> ms_of_ns r.Ledger.r_total_ns | None -> 0.0

(* Time covered by any stage or determinant: the sum of self costs. *)
let attributed_ms ledger =
  List.fold_left
    (fun acc kind ->
      List.fold_left
        (fun acc r -> acc +. ms_of_ns r.Ledger.r_self_ns)
        acc (Ledger.rollup_by_name ledger kind))
    0.0 [ Ledger.Stage; Ledger.Determinant ]

let counter name =
  float_of_int (Option.value (Feam_obs.Metrics.counter_value name) ~default:0)

type gc_mark = { minor_words : float; major_collections : int; hits : float; misses : float }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = Gc.minor_words (); major_collections = s.Gc.major_collections;
    hits = counter "bdc.describe_cache.hit"; misses = counter "bdc.describe_cache.miss" }

(* The pipeline layers' metrics from a ledger, plus Gc and describe-memo
   deltas since [mark].  [cells] is the number of cells the pipeline
   evaluated while the ledger was installed. *)
let layer_metrics ledger ~mark ~cells =
  let self kind name f =
    match find kind ledger name with Some r -> f r | None -> 0.0
  in
  let self_ms kind name = self kind name (fun r -> ms_of_ns r.Ledger.r_self_ns) in
  let self_kw kind name = self kind name (fun r -> r.Ledger.r_self_words /. 1e3) in
  let st = Ledger.Stage and det = Ledger.Determinant in
  let now = gc_mark () in
  let hits = now.hits -. mark.hits and misses = now.misses -. mark.misses in
  [
    ("phases.source.calls", calls ledger "phases.source");
    ("phases.source.self_ms", self_ms st "phases.source");
    ("phases.target.calls", calls ledger "phases.target");
    ("phases.target.self_ms", self_ms st "phases.target");
    ("bdc.describe.calls", calls ledger "bdc.describe");
    ("bdc.describe.self_ms", self_ms st "bdc.describe");
    ("bdc.describe.self_kwords", self_kw st "bdc.describe");
    ("bdc.describe_cache.hit_ratio", ratio hits (hits +. misses));
    ("edc.discover.calls", calls ledger "edc.discover");
    ("edc.discover.self_ms", self_ms st "edc.discover");
    ("tec.evaluate.self_ms", self_ms st "tec.evaluate");
    ("tec.mpi_stack.self_ms", self_ms det "mpi_stack");
    ("tec.mpi_stack.self_kwords", self_kw det "mpi_stack");
    ("tec.shared_libraries.self_ms", self_ms det "shared_libraries");
    ("tec.glibc.self_ms", self_ms det "glibc");
    ("tec.isa.self_ms", self_ms det "isa");
    ("resolve.calls", calls ledger "resolve.resolve");
    ("resolve.self_ms", self_ms st "resolve.resolve");
    ("exec.ground_truth.calls", calls ledger "exec.ground_truth");
    ("exec.ground_truth.self_ms", self_ms st "exec.ground_truth");
    ( "gc.minor_kwords_per_cell",
      ratio ((now.minor_words -. mark.minor_words) /. 1e3) (float_of_int cells) );
    ( "gc.major_collections",
      float_of_int (now.major_collections - mark.major_collections) );
    ("attributed_ms", attributed_ms ledger);
  ]

(* Fleet provisioning and corpus compilation, each timed once under its
   own stage. *)
let world_metrics params =
  let ledger = new_ledger () in
  let binaries =
    with_ledger ledger @@ fun () ->
    let sites =
      span "world.provision" (fun () -> Feam_evalharness.Sites.build_all params)
    in
    span "world.compile" (fun () ->
        Feam_evalharness.Testset.build params sites
          (Feam_suites.Npb.all @ Feam_suites.Specmpi.all))
  in
  [
    ("world.provision_ms", total_ms ledger "world.provision");
    ("world.compile_ms", total_ms ledger "world.compile");
    ("world.binaries", float_of_int (List.length binaries));
  ]
