(* The migration experiment (paper §VI.B): every test binary is migrated
   to every other site that offers a matching MPI implementation — only
   there is successful execution possible, and only those migrations are
   reported.  For each migration we record:

   - the *basic* prediction: FEAM's required target phase only;
   - the *extended* prediction: source phase at the guaranteed site plus
     target phase with the bundle (enables probes and resolution);
   - actual execution *before resolution*: the user selects a matching
     stack and runs, no library fixes (Table IV "before");
   - actual execution *after resolution*: FEAM's configuration applied
     (Table IV "after").

   Prediction accuracy (Table III) scores basic against the
   before-resolution run and extended against the after-resolution run,
   since those are the executions each mode configures. *)

open Feam_sysmodel
open Feam_mpi
open Feam_suites

type migration = {
  binary : Testset.binary;
  target_name : string;
  basic_ready : bool;
  basic_reasons : string list;
  extended_ready : bool;
  extended_reasons : string list;
  staged_copies : string list; (* libraries FEAM resolved from the bundle *)
  actual_before : Feam_dynlinker.Exec.outcome;
  actual_after : Feam_dynlinker.Exec.outcome;
}

let success = function
  | Feam_dynlinker.Exec.Success -> true
  | Feam_dynlinker.Exec.Failure _ -> false

let basic_correct m = m.basic_ready = success m.actual_before
let extended_correct m = m.extended_ready = success m.actual_after

let migrated_dir = "/home/user/migrated"

(* The stack a knowledgeable user selects by hand: matching MPI
   implementation, preferring the build compiler family (paper §VI:
   "choosing an execution site only by matching the MPI implementation"). *)
let user_stack_choice binary target =
  let build_stack = Stack_install.stack binary.Testset.install in
  let impl = Stack.impl build_stack in
  let family = Compiler.family (Stack.compiler build_stack) in
  let matching =
    Site.stack_installs target
    |> List.filter (fun i -> Impl.equal (Stack.impl (Stack_install.stack i)) impl)
  in
  let same_family =
    List.filter
      (fun i ->
        Compiler.family_equal
          (Compiler.family (Stack.compiler (Stack_install.stack i)))
          family)
      matching
  in
  match (same_family, matching) with
  | i :: _, _ -> Some i
  | [], i :: _ -> Some i
  | [], [] -> None

let has_matching_impl binary target = user_stack_choice binary target <> None

(* Stage the binary at the target, as the user's scp would. *)
let stage_binary binary target =
  let path =
    migrated_dir ^ "/" ^ Vfs.basename binary.Testset.home_path
  in
  Vfs.add ~declared_size:binary.Testset.declared_size (Site.vfs target) path
    (Vfs.Elf binary.Testset.bytes);
  path

let cleanup target =
  Vfs.remove_tree (Site.vfs target) "/tmp/feam";
  Vfs.remove_tree (Site.vfs target) migrated_dir

let run_binary (params : Params.t) target env path =
  Feam_obs.Ledger.with_stage "exec.ground_truth" @@ fun () ->
  Feam_dynlinker.Exec.run ~params:params.Params.exec
    ~attempts:params.Params.attempts target env ~binary_path:path
    ~mode:(Feam_dynlinker.Exec.Mpi 4)

(* One migration.  [bundle_filter] transforms the source-phase bundle
   before the extended target phase runs — the hook the ablation study
   uses to strip probes or library copies. *)
let migrate ?clock ?(bundle_filter = fun b -> b) (params : Params.t) binary
    target =
  (* One matrix cell in the cost ledger, named binary->site like the
     evaluation tables; the Prof timer sees the same work per target. *)
  Feam_obs.Ledger.with_cell
    (binary.Testset.id ^ "->" ^ Site.name target)
  @@ fun () ->
  Feam_obs.Prof.with_timer
    ~labels:[ ("target", Site.name target) ]
    "evalharness.migrate"
  @@ fun () ->
  let config = Feam_core.Config.default in
  let base_env = Site.base_env target in
  cleanup target;
  let staged_path = stage_binary binary target in

  (* -- Basic prediction: target phase only, no bundle. ------------------ *)
  let basic =
    Feam_core.Phases.target_phase ?clock config target base_env
      ~binary_path:staged_path ()
  in
  let basic_ready, basic_reasons, basic_slug =
    match basic with
    | Ok report ->
      let p = Feam_core.Report.prediction report in
      let slug =
        match p.Feam_core.Predict.determinants.Feam_core.Predict.stack with
        | Some s -> s.Feam_core.Predict.functioning
        | None -> None
      in
      (Feam_core.Predict.is_ready p, Feam_core.Predict.reasons p, slug)
    | Error e -> (false, [ e ], None)
  in

  (* -- Actual execution before resolution. ------------------------------ *)
  (* The stack FEAM's target phase selected (falling back to the user's
     own matching choice when FEAM found none), with no library fixes. *)
  Vfs.remove_tree (Site.vfs target) "/tmp/feam";
  let before_install =
    match basic_slug with
    | Some slug -> Site.find_stack_install target ~slug
    | None -> user_stack_choice binary target
  in
  let actual_before =
    match before_install with
    | None -> Feam_dynlinker.Exec.Failure Feam_dynlinker.Exec.No_mpi_stack
    | Some install ->
      let env = Modules_tool.load_stack base_env install in
      run_binary params target env staged_path
  in

  (* -- Extended prediction: source phase at home, bundle to target. ----- *)
  let bundle =
    Feam_core.Phases.source_phase ?clock config binary.Testset.home
      (Modules_tool.load_stack
         (Site.base_env binary.Testset.home)
         binary.Testset.install)
      ~binary_path:binary.Testset.home_path
  in
  let extended =
    match bundle with
    | Error e -> Error e
    | Ok bundle ->
      Feam_core.Phases.target_phase ?clock config target base_env
        ~bundle:(bundle_filter bundle) ~binary_path:staged_path ()
  in
  let extended_ready, extended_reasons, staged_copies, chosen_slug =
    match extended with
    | Ok report -> (
      let p = Feam_core.Report.prediction report in
      match p.Feam_core.Predict.verdict with
      | Feam_core.Predict.Ready plan ->
        ( true,
          [],
          List.map fst plan.Feam_core.Predict.staged_copies,
          plan.Feam_core.Predict.chosen_stack_slug )
      | Feam_core.Predict.Not_ready reasons ->
        (* Copies staged before the verdict remain available to the
           after-resolution run below. *)
        let staged =
          match p.Feam_core.Predict.determinants.Feam_core.Predict.libs with
          | Some l -> l.Feam_core.Predict.resolved_by_copies
          | None -> []
        in
        (false, reasons, staged, None))
    | Error e -> (false, [ e ], [], None)
  in

  (* -- Actual execution after resolution. -------------------------------- *)
  let after_install =
    match chosen_slug with
    | Some slug -> Site.find_stack_install target ~slug
    | None -> user_stack_choice binary target
  in
  let actual_after =
    match after_install with
    | None -> Feam_dynlinker.Exec.Failure Feam_dynlinker.Exec.No_mpi_stack
    | Some install ->
      let env = Modules_tool.load_stack base_env install in
      let env =
        if staged_copies = [] then env
        else
          Env.prepend_path env "LD_LIBRARY_PATH"
            config.Feam_core.Config.staging_dir
      in
      run_binary params target env staged_path
  in
  cleanup target;
  {
    binary;
    target_name = Site.name target;
    basic_ready;
    basic_reasons;
    extended_ready;
    extended_reasons;
    staged_copies;
    actual_before;
    actual_after;
  }

(* All migrations of the corpus: each binary to every *other* site with a
   matching MPI implementation.  The describe memo is enabled for the
   run: the same library image re-described at the same site across
   cells parses once (hit rate surfaces in bdc.describe_cache metrics).
   So is the probe memo: the run is one batch over a fixed world, and a
   stack probed under the same session and bundle content is probed
   once (probe.memo metrics). *)
let run_all ?clock ?bundle_filter params sites binaries =
  Feam_core.Bdc.set_describe_memo ();
  Fun.protect ~finally:Feam_core.Bdc.clear_describe_memo @@ fun () ->
  Feam_core.Probe.with_memo @@ fun () ->
  List.concat_map
    (fun binary ->
      sites
      |> List.filter (fun target ->
             Site.name target <> Site.name binary.Testset.home
             && has_matching_impl binary target)
      |> List.map (fun target -> migrate ?clock ?bundle_filter params binary target))
    binaries

let of_suite suite migrations =
  List.filter
    (fun m -> m.binary.Testset.benchmark.Benchmark.suite = suite)
    migrations
