(* User-effort model: the paper's second future-work direction —
   "quantifying the amount of user effort required to perform migration
   tasks so that we can more concretely compute the efficiency gains of
   using our methods" (§VII).

   The model assigns wall-clock minutes of *human* effort to the manual
   workflow (reading site documentation, discovering MPI stacks by hand,
   trial-and-error submissions, chasing missing libraries) and to the
   FEAM workflow (writing the small configuration file, launching phases,
   reading the report), then aggregates both over the evaluation's
   migration matrix.  The constants are deliberately conservative
   estimates of the paper's "many hours to familiarize themselves with
   just one new environment" (§I). *)

(* -- Manual workflow constants (minutes of human attention) --------------- *)

let manual_env_study = 45.0
(* reading user guides, module lists, picking an MPI stack by hand *)

let manual_submission_attempt = 12.0
(* writing/adjusting a submission script, submitting, inspecting output *)

let manual_missing_lib_chase = 40.0
(* identifying a missing library, locating a copy, wiring LD_LIBRARY_PATH *)

let manual_dead_end = 25.0
(* concluding (after failed attempts) that a site cannot work *)

(* -- FEAM workflow constants ------------------------------------------------ *)

let feam_configuration = 5.0
(* writing the configuration file: submission formats, binary location *)

let feam_phase_attention = 3.0
(* launching a phase and reading its report *)

(* -- Per-migration estimates ------------------------------------------------ *)

(* Manual effort for one migration, from what actually happened: the user
   studies the environment, then iterates failed submissions; missing
   libraries trigger a by-hand chase; an ultimately failing site costs a
   dead-end investigation on top. *)
let manual_minutes (m : Migrate.migration) =
  let base = manual_env_study +. manual_submission_attempt in
  match m.Migrate.actual_after with
  | Feam_dynlinker.Exec.Success ->
    (* how hard was success? add the library chase when resolution was
       what made it work *)
    if Migrate.success m.Migrate.actual_before then base
    else base +. manual_submission_attempt +. manual_missing_lib_chase
  | Feam_dynlinker.Exec.Failure f -> (
    match Accuracy.classify f with
    | Accuracy.Missing_shared_libraries ->
      base +. manual_submission_attempt +. manual_missing_lib_chase
      +. manual_dead_end
    | Accuracy.C_library_version | Accuracy.Abi_or_fp | Accuracy.Stack_problem
      ->
      base +. (2.0 *. manual_submission_attempt) +. manual_dead_end
    | Accuracy.System_errors | Accuracy.Other ->
      base +. manual_submission_attempt +. manual_dead_end)

(* FEAM effort for one migration: configuration is per-site, phases are
   launch-and-read.  The machine time (under five minutes per phase) is
   not human attention and is excluded, as the paper's framing implies. *)
let feam_minutes (_m : Migrate.migration) =
  feam_configuration +. (2.0 *. feam_phase_attention)

type summary = {
  migrations : int;
  manual_total_minutes : float;
  feam_total_minutes : float;
}

let summarize migrations =
  List.fold_left
    (fun acc m ->
      {
        migrations = acc.migrations + 1;
        manual_total_minutes = acc.manual_total_minutes +. manual_minutes m;
        feam_total_minutes = acc.feam_total_minutes +. feam_minutes m;
      })
    { migrations = 0; manual_total_minutes = 0.0; feam_total_minutes = 0.0 }
    migrations

let of_suite suite migrations =
  summarize (Migrate.of_suite suite migrations)

(* Efficiency gain: manual effort divided by FEAM effort. *)
let gain s =
  if s.feam_total_minutes = 0.0 then 0.0
  else s.manual_total_minutes /. s.feam_total_minutes

let hours minutes = minutes /. 60.0

(* Render the effort table printed by evaltool. *)
let table migrations =
  let nas = of_suite Feam_suites.Benchmark.Nas migrations in
  let spec = of_suite Feam_suites.Benchmark.Spec_mpi2007 migrations in
  let row label f =
    [ label; f nas; f spec ]
  in
  Feam_util.Table.make
    ~title:
      "User-effort model (paper SVII future work: quantifying efficiency gains)"
    ~aligns:[ Feam_util.Table.Left; Feam_util.Table.Right; Feam_util.Table.Right ]
    ~header:[ ""; "NAS"; "SPEC" ]
    [
      row "Migrations" (fun s -> string_of_int s.migrations);
      row "Manual effort (hours)" (fun s ->
          Printf.sprintf "%.0f" (hours s.manual_total_minutes));
      row "FEAM effort (hours)" (fun s ->
          Printf.sprintf "%.0f" (hours s.feam_total_minutes));
      row "Efficiency gain" (fun s -> Printf.sprintf "%.1fx" (gain s));
    ]
