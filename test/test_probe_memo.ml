(* The probe-outcome memo: a batch run with it is indistinguishable from
   the same cells run without it (records, simulated-clock total, build
   ids), a hit leaves exactly the state a second miss leaves (site files,
   charges, build ids, journal), and the memo never outlives a batch, so
   a serve evidence update that flips probe outcomes is seen by the next
   batch. *)

open Feam_sysmodel
module Migrate = Feam_evalharness.Migrate
module Driftrun = Feam_evalharness.Driftrun
module Params = Feam_evalharness.Params
module Testset = Feam_evalharness.Testset
module Probe = Feam_core.Probe
module Recorder = Feam_flightrec.Recorder
module Sim_clock = Feam_util.Sim_clock
module Build_id = Feam_toolchain.Build_id
module Json = Feam_util.Json
module Engine = Feam_serve.Engine

let params = Params.default

let small_world () =
  Driftrun.build_world params (Driftrun.small_specs ())
    (Driftrun.small_benchmarks ()) []

let counter name =
  Option.value (Feam_obs.Metrics.counter_value name) ~default:0

let counted name f =
  let before = counter name in
  let r = f () in
  (r, counter name - before)

(* -- batch equivalence --------------------------------------------------- *)

let migration_row (m : Migrate.migration) =
  Fmt.str "%s->%s basic=%b %a extended=%b %a staged=%a before=%s after=%s"
    m.Migrate.binary.Testset.id m.Migrate.target_name m.Migrate.basic_ready
    Fmt.(Dump.list string)
    m.Migrate.basic_reasons m.Migrate.extended_ready
    Fmt.(Dump.list string)
    m.Migrate.extended_reasons
    Fmt.(Dump.list string)
    m.Migrate.staged_copies
    (Feam_dynlinker.Exec.outcome_to_string m.Migrate.actual_before)
    (Feam_dynlinker.Exec.outcome_to_string m.Migrate.actual_after)

(* [Migrate.run_all]'s cells, one [Migrate.migrate] at a time and outside
   any memo scope; the describe memo is on as in [run_all], so the probe
   memo is the only difference. *)
let migrate_cellwise ~clock sites binaries =
  Feam_core.Bdc.set_describe_memo ();
  Fun.protect ~finally:Feam_core.Bdc.clear_describe_memo @@ fun () ->
  List.concat_map
    (fun (b : Testset.binary) ->
      sites
      |> List.filter (fun t ->
             Site.name t <> Site.name b.Testset.home
             && Migrate.has_matching_impl b t)
      |> List.map (Migrate.migrate ~clock params b))
    binaries

let test_run_all_equals_cellwise () =
  let run f =
    let sites, binaries = small_world () in
    let clock = Sim_clock.create () in
    let rows = List.map migration_row (f ~clock sites binaries) in
    (rows, Sim_clock.elapsed clock, Build_id.serial ())
  in
  let (memo_rows, memo_clock, memo_ids), hits =
    counted "probe.memo.hit" (fun () ->
        run (fun ~clock -> Migrate.run_all ~clock params))
  in
  let plain_rows, plain_clock, plain_ids = run migrate_cellwise in
  Alcotest.(check bool) "the memo hits within run_all" true (hits > 0);
  Alcotest.(check (list string)) "migration records" plain_rows memo_rows;
  Alcotest.(check (float 0.0)) "simulated-clock total" plain_clock memo_clock;
  Alcotest.(check int) "final build-id serial" plain_ids memo_ids

(* -- hit versus second miss ---------------------------------------------- *)

let config = Feam_core.Config.default

let staging = config.Feam_core.Config.staging_dir

let source_bundle (b : Testset.binary) =
  match
    Feam_core.Phases.source_phase config b.Testset.home
      (Modules_tool.load_stack (Site.base_env b.Testset.home) b.Testset.install)
      ~binary_path:b.Testset.home_path
  with
  | Ok bundle -> bundle
  | Error e -> Alcotest.failf "source phase failed: %s" e

let probe site install bundle ~clock =
  Probe.test_stack ~clock config site (Site.base_env site) install
    ~bundle:(Some bundle) ~target_glibc:(Some (Site.glibc site))

(* A (binary, target, stack) whose probes ship foreign images, compile a
   native one, and stage library copies: every kind of write a hit must
   redo.  Found by probing a throwaway world. *)
let staging_case () =
  let sites, binaries = small_world () in
  let stages (b : Testset.binary) target install =
    Vfs.remove_tree (Site.vfs target) "/tmp/feam";
    let bundle = source_bundle b in
    ignore (probe target install bundle ~clock:(Sim_clock.create ()));
    bundle.Feam_core.Bundle.probes <> []
    && Vfs.find_under (Site.vfs target) staging (fun _ -> true) <> []
    && Vfs.find_under (Site.vfs target) Probe.probe_dir (fun _ -> true)
       |> List.exists (fun p -> not (Filename.check_suffix p ".shipped"))
  in
  let found =
    List.find_map
      (fun (b : Testset.binary) ->
        List.find_map
          (fun target ->
            if Site.name target = Site.name b.Testset.home then None
            else
              List.find_map
                (fun install ->
                  if stages b target install then
                    Some
                      ( b.Testset.id,
                        Site.name target,
                        Stack_install.module_name install )
                  else None)
                (Site.stack_installs target))
          sites)
      binaries
  in
  match found with
  | Some case -> case
  | None -> Alcotest.fail "no probe in the small world stages a library copy"

(* Probe the case's stack twice in a fresh world — the second time with
   a freshly built bundle, so shipped images differ in bytes but not in
   content — and return everything the calls left behind. *)
let probe_twice ~memo (binary_id, target_name, module_name) =
  let sites, binaries = small_world () in
  let binary =
    List.find (fun (b : Testset.binary) -> b.Testset.id = binary_id) binaries
  in
  let target = List.find (fun s -> Site.name s = target_name) sites in
  let install =
    List.find
      (fun i -> Stack_install.module_name i = module_name)
      (Site.stack_installs target)
  in
  let first = source_bundle binary and second = source_bundle binary in
  Vfs.remove_tree (Site.vfs target) "/tmp/feam";
  let clock = Sim_clock.recording () in
  let journal = ref "" in
  Recorder.configure ~tool:"probe-memo-test" ~emit:(fun b -> journal := b) ();
  let calls () =
    let a = probe target install first ~clock in
    let b = probe target install second ~clock in
    [ a; b ]
  in
  let results, hits =
    counted "probe.memo.hit" (fun () ->
        if memo then Probe.with_memo calls else calls ())
  in
  Recorder.flush ();
  Recorder.disable ();
  let files =
    Vfs.find_under (Site.vfs target) "/tmp/feam" (fun _ -> true)
    |> List.map (fun p -> (p, Vfs.find (Site.vfs target) p))
  in
  (results, hits, files, Sim_clock.charges clock, Build_id.serial (), !journal)

let test_hit_equals_second_miss () =
  let case = staging_case () in
  let memo_results, memo_hits, memo_files, memo_charges, memo_ids, memo_journal =
    probe_twice ~memo:true case
  in
  let results, hits, files, charges, ids, journal = probe_twice ~memo:false case in
  Alcotest.(check int) "one hit with the memo" 1 memo_hits;
  Alcotest.(check int) "no hit without it" 0 hits;
  Alcotest.(check bool) "same outcomes" true (results = memo_results);
  Alcotest.(check (list string))
    "same site paths" (List.map fst files) (List.map fst memo_files);
  Alcotest.(check bool) "same site contents" true (files = memo_files);
  Alcotest.(check (list (float 0.0))) "same charges, in order" charges
    memo_charges;
  Alcotest.(check int) "same build-id serial" ids memo_ids;
  Alcotest.(check string) "same journal" journal memo_journal

(* -- serve: the memo never outlives a batch ------------------------------ *)

let response engine line =
  match Feam_serve.Protocol.parse line with
  | Error e -> Alcotest.failf "%s: %s" line (Feam_serve.Protocol.error_code e)
  | Ok req -> (
    match Json.parse (Engine.handle ~write_file:(fun _ _ -> ()) engine req) with
    | Ok json -> json
    | Error e -> Alcotest.failf "unparseable response: %s" e)

(* (cell, after) of each flip an update reports. *)
let flips json =
  match Json.member "flips" json with
  | Some (Json.List flips) ->
    List.filter_map
      (fun f ->
        match (Json.member "cell" f, Json.member "after" f) with
        | Some (Json.Str cell), Some (Json.Bool after) -> Some (cell, after)
        | _ -> None)
      flips
  | _ -> Alcotest.fail "update-evidence response has no flips"

(* Cells evaluated *at* fir: their flips come from fir's probes and
   loader, not from a fir-built bundle. *)
let targeting_fir cells =
  List.filter (fun c -> Filename.check_suffix c "->fir") cells |> List.sort compare

let crosscheck_matches engine =
  Json.member "matches" (response engine {|{"verb":"crosscheck"}|})
  = Some (Json.Bool true)

let test_serve_batches_see_probe_flips () =
  let engine = Engine.create ~seed:params.Params.seed () in
  Fun.protect ~finally:(fun () -> Engine.close engine) @@ fun () ->
  let update action =
    counted "edc.probe_failures" (fun () ->
        response engine
          (Printf.sprintf
             {|{"verb":"update-evidence","site":"fir","action":"%s"}|} action))
  in
  (* A stale loader cache hides compiler runtimes from fir's probes... *)
  let stale, stale_failures = update "stale-ld-cache" in
  let stale_flips = flips stale in
  let to_not_ready = targeting_fir (List.map fst stale_flips) in
  Alcotest.(check bool) "stale cache fails probes" true (stale_failures > 0);
  Alcotest.(check bool)
    "cells at fir flip to not ready" true
    (to_not_ready <> [] && List.for_all (fun (_, after) -> not after) stale_flips);
  Alcotest.(check bool) "crosscheck after stale" true (crosscheck_matches engine);
  (* ...and the next batch, under a fresh cache, must probe afresh
     rather than reuse the stale batch's outcomes. *)
  let fresh, fresh_failures = update "fresh-ld-cache" in
  let fresh_flips = flips fresh in
  Alcotest.(check bool)
    "fresh cache probes pass again" true
    (fresh_failures < stale_failures);
  Alcotest.(check (list string))
    "the same cells at fir flip back" to_not_ready
    (targeting_fir (List.map fst fresh_flips));
  Alcotest.(check bool)
    "every flip is back to ready" true
    (List.for_all snd fresh_flips);
  Alcotest.(check bool) "crosscheck after fresh" true (crosscheck_matches engine)

let suite =
  ( "probe-memo",
    [
      Alcotest.test_case "run_all equals cell-by-cell without the memo" `Quick
        test_run_all_equals_cellwise;
      Alcotest.test_case "a hit leaves the state of a second miss" `Quick
        test_hit_equals_second_miss;
      Alcotest.test_case "serve batches see probe flips" `Quick
        test_serve_batches_see_probe_flips;
    ] )
