(* MPI stack probing (paper §III.B, §V.C): a stack is deemed usable only
   if a basic MPI program actually executes under it.

   Two probe kinds:
   - native: "hello world" compiled at the target with the candidate
     stack's wrappers — detects misconfigured stacks;
   - foreign: hello-world binaries shipped from the guaranteed execution
     environment, compiled with the *application's* stack — additionally
     detects ABI and floating-point defects that only bite foreign
     builds (the extended prediction's edge, §VI.C). *)

open Feam_sysmodel

let probe_dir = "/tmp/feam/probes"

type probe_result = (unit, string) result

(* The batch queue probes are submitted through: the user-configured
   serial/parallel queue when it exists at the site, the default (debug)
   queue otherwise (paper §V: the user specifies serial and parallel
   submission for the site). *)
let probe_queue config site ~parallel =
  let wanted =
    if parallel then config.Config.parallel_queue else config.Config.serial_queue
  in
  Option.bind wanted (Batch.queue_by_name (Site.batch site))

let run_binary ?clock config site env ~binary_path ~parallel =
  let mode =
    if parallel then Feam_dynlinker.Exec.Mpi config.Config.probe_np
    else Feam_dynlinker.Exec.Serial
  in
  let queue = probe_queue config site ~parallel in
  match Feam_dynlinker.Exec.run ?clock ?queue site env ~binary_path ~mode with
  | Feam_dynlinker.Exec.Success -> Ok ()
  | Feam_dynlinker.Exec.Failure f ->
    Error (Feam_dynlinker.Exec.failure_to_string f)

(* Expose the bundle's usable copies to a probe whose dependencies are
   missing under [env]: probes travel (or run) with the bundle's
   libraries, exactly like the application (paper SIV applied to the
   probe binaries themselves). *)
let resolve_probe_env ?clock config site env ~bundle ~target_glibc bytes =
  match bundle with
  | None -> env
  | Some bundle -> (
    match Feam_elf.Reader.parse bytes with
    | Error _ -> env
    | Ok parsed ->
      let spec = Feam_elf.Reader.spec parsed in
      let missing =
        spec.Feam_elf.Spec.needed
        |> List.filter (fun name ->
               not (Resolve_model.present_at_target site env name))
      in
      if missing = [] then env
      else
        let resolution =
          Resolve_model.resolve ?clock config site env ~bundle ~target_glibc
            ~binary_machine:spec.Feam_elf.Spec.machine
            ~binary_class:spec.Feam_elf.Spec.elf_class ~missing
        in
        resolution.Resolve_model.env)

(* Compile and run a native MPI hello world under [install]'s stack.
   When a bundle is available, the probe runs with its staged copies
   exposed — a natively compiled probe can need them too (e.g. a
   compiler runtime present on disk but absent from a stale loader
   cache). *)
let native ?clock ?bundle ?target_glibc config site env install : probe_result =
  Feam_obs.Trace.with_span "probe.native" @@ fun () ->
  (* [target_glibc] is the discovered C-library version, when known *)
  if not (Site.tools site).Tools.c_compiler then
    Error "native compilation not possible"
  else
    let env = Modules_tool.load_stack env install in
    match
      Feam_toolchain.Compile.compile_mpi_to ?clock site install
        Feam_toolchain.Compile.hello_world_mpi ~dir:probe_dir
    with
    | Error e -> Error (Feam_toolchain.Compile.error_to_string e)
    | Ok path ->
      let env =
        match Vfs.find (Site.vfs site) path with
        | Some { Vfs.kind = Vfs.Elf bytes; _ } ->
          resolve_probe_env ?clock config site env ~bundle ~target_glibc bytes
        | _ -> env
      in
      run_binary ?clock config site env ~binary_path:path ~parallel:true

(* Stage and run a shipped hello-world probe under [install]'s stack.
   The probe travelled with the bundle, so the bundle's library copies
   travel with it: any of its dependencies missing at the target (the
   application's compiler runtime, typically) are resolved from the
   bundle before the run, exactly as for the application itself. *)
let foreign ?clock config site env install ~(bundle : Bundle.t) ~target_glibc
    (probe : Bundle.probe) : probe_result =
  Feam_obs.Trace.with_span "probe.foreign"
    ~attrs:[ ("probe", Feam_obs.Span.Str probe.Bundle.probe_name) ]
  @@ fun () ->
  let env = Modules_tool.load_stack env install in
  let path = probe_dir ^ "/" ^ probe.Bundle.probe_name ^ ".shipped" in
  Vfs.add ~declared_size:probe.Bundle.probe_declared_size (Site.vfs site) path
    (Vfs.Elf probe.Bundle.probe_bytes);
  Cost.charge clock
    (Cost.copy_per_mb
    *. (float_of_int probe.Bundle.probe_declared_size /. 1048576.0));
  let env =
    resolve_probe_env ?clock config site env ~bundle:(Some bundle) ~target_glibc
      probe.Bundle.probe_bytes
  in
  run_binary ?clock config site env ~binary_path:path ~parallel:true

(* Comment-stripped fingerprint of a probe image.  Every compile embeds
   a fresh [Build_id], so raw probe bytes differ between two builds of
   the same probe; the parsed spec with the provenance comments dropped
   is the probe's loader-relevant content — stable across recompiles,
   still sensitive to real change (needed libraries, interpreter, ...). *)
let probe_fingerprint bytes =
  let digest s = Feam_depot.Chash.to_hex (Feam_depot.Chash.of_bytes s) in
  match Feam_elf.Reader.spec_of_bytes bytes with
  | Ok spec ->
    digest
      (Fmt.str "%a" Feam_elf.Spec.pp { spec with Feam_elf.Spec.comments = [] })
  | Error _ -> digest bytes

(* The probes proper: native when possible, then every shipped probe.  A
   stack passes only if all applicable probes pass; when no probe can be
   run at all the stack's mere presence cannot be verified. *)
let run_probes ?clock config site env install ~(bundle : Bundle.t option)
    ~target_glibc : probe_result =
  let native_result =
    if (Site.tools site).Tools.c_compiler then
      Some (native ?clock ?bundle ?target_glibc config site env install)
    else None
  in
  let foreign_results =
    match bundle with
    | None -> []
    | Some b ->
      b.Bundle.probes
      |> List.map (fun p ->
             ( p.Bundle.probe_stack_slug,
               foreign ?clock config site env install ~bundle:b ~target_glibc p ))
  in
  match native_result with
  | Some (Error e) -> Error ("native probe failed: " ^ e)
  | _ -> (
    match
      List.find_opt (fun (_, r) -> Result.is_error r) foreign_results
    with
    | Some (slug, Error e) ->
      Error (Printf.sprintf "shipped probe (built with %s) failed: %s" slug e)
    | Some (_, Ok ()) -> assert false
    | None ->
      if native_result = None && foreign_results = [] then
        Error "no probe available: cannot verify the stack functions"
      else Ok ())

(* -- probe-outcome memo (batch-scoped) ---------------------------------- *)

(* Within one evaluation batch the same stack is probed under the same
   session many times: every cell targeting a site re-tests its
   candidate stacks.  The outcome is a function of what the probes read
   — the site (fixed within a batch), the stack, the session environment,
   the target C library, the config, and the bundle's probes and library
   copies — so it is memoized on exactly that, derived from content.

   A memo entry keeps the miss's effects, not just its verdict, and a hit
   replays them in order: the site writes (compiled probe, shipped copy,
   staged library copies), each simulated-clock charge, the build ids
   the compiles drew (re-drawn, with the images re-stamped, so a hit
   leaves the bytes a second compile would), and the journal records.
   Enabled only inside {!with_memo}, which a batch over one fixed world
   wraps; the memo never outlives it, so it never sees a site change. *)

(* What a miss wrote, in terms a hit can redo against its own bundle:
   a second miss would ship *this* bundle's probe images and stage its
   library copies (content-equal, by the key, but not the same
   strings), and compile afresh under new build ids. *)
type content =
  | Literal of Vfs.kind
  | Shipped_probe of int  (** the bundle's n-th probe image *)
  | Bundle_copy of int  (** the bundle's n-th library copy *)
  | Compiled of {
      template : string;  (** the image with its build ids blanked *)
      stamps : (int * int) list;
          (** (byte offset, index among the ids the miss drew) *)
      provenance : Feam_toolchain.Provenance.t option;
    }

type write = Wrote of string * int * content | Removed of string

type effects = {
  fx_writes : write list;
  fx_charges : float list;
  fx_build_ids : int;
  fx_records : Feam_flightrec.Recorder.entry list;
}

(* Entries by key digest; compiled templates are shared between entries
   (the same stack compiles the same probe under every bundle). *)
type memo = {
  entries : (Digest.t, probe_result * effects) Hashtbl.t;
  templates : (string, string) Hashtbl.t;
}

let memo : memo option ref = ref None

(* One-slot caches on the physical value: within a cell every candidate
   stack is probed with the same bundle and config. *)
let last_bundle : (Bundle.t * string) option ref = ref None
let last_config : (Config.t * string) option ref = ref None

(* The batch scope also memoizes ELF parsing and undoes the batch's
   provenance registrations (probe compiles register a fresh image each),
   so nothing the batch built stays reachable once it ends. *)
let with_memo f =
  (* registered at zero, so the cache telemetry lists the memo even
     before (or without) a hit *)
  Feam_obs.Metrics.incr "probe.memo.hit" ~by:0;
  Feam_obs.Metrics.incr "probe.memo.miss" ~by:0;
  let outer = !memo in
  memo := Some { entries = Hashtbl.create 256; templates = Hashtbl.create 16 };
  Fun.protect
    ~finally:(fun () ->
      memo := outer;
      last_bundle := None;
      last_config := None)
    (fun () ->
      Feam_toolchain.Provenance.with_scope @@ fun () ->
      Feam_elf.Reader.with_memo f)

let cached slot value render =
  match !slot with
  | Some (v, s) when v == value -> s
  | _ ->
    let s = render value in
    slot := Some (value, s);
    s

let bundle_key (b : Bundle.t) =
  let digest s = Feam_depot.Chash.to_hex (Feam_depot.Chash.of_bytes s) in
  String.concat "\n"
    ((b.Bundle.created_at
     :: List.map
          (fun p ->
            Printf.sprintf "probe %s %s %d %s" p.Bundle.probe_name
              p.Bundle.probe_stack_slug p.Bundle.probe_declared_size
              (probe_fingerprint p.Bundle.probe_bytes))
          b.Bundle.probes)
    @ List.map
        (fun c ->
          Printf.sprintf "copy %s %d %s" c.Bdc.copy_request
            c.Bdc.copy_declared_size (digest c.Bdc.copy_bytes))
        b.Bundle.copies)

let memo_key config site env install ~bundle ~target_glibc =
  String.concat "\000"
    [
      Site.name site;
      Stack_install.module_name install;
      Env.to_string env;
      (match target_glibc with
      | Some v -> Feam_util.Version.to_string v
      | None -> "-");
      cached last_config config Config.to_file_body;
      (match bundle with
      | Some b -> cached last_bundle b bundle_key
      | None -> "-");
      (* entries made with journaling off hold no records *)
      string_of_bool (Feam_flightrec.Recorder.enabled ());
    ]

let rec find_sub s sub from =
  let n = String.length sub in
  if from + n > String.length s then None
  else if String.sub s from n = sub then Some from
  else
    match String.index_from_opt s (from + 1) sub.[0] with
    | Some i -> find_sub s sub i
    | None -> None

(* Where each of [ids] occurs in [bytes]. *)
let stamps_in bytes ids =
  List.concat
    (List.mapi
       (fun i id ->
         let rec all from acc =
           match find_sub bytes id from with
           | Some off -> all (off + 1) ((off, i) :: acc)
           | None -> acc
         in
         all 0 [])
       ids)

let index_of p l =
  let rec go i = function
    | [] -> None
    | x :: rest -> if p x then Some i else go (i + 1) rest
  in
  go 0 l

(* Run the probes once, capturing their effects.  Site writes and build
   ids happen as they go (the probes read their own writes); charges and
   journal records are held back for {!settle}. *)
let capture_probes memo config site env install ~bundle ~target_glibc =
  let clock = Feam_util.Sim_clock.recording () in
  let first_id = Feam_toolchain.Build_id.serial () in
  let run () =
    Vfs.capture (Site.vfs site) @@ fun () ->
    run_probes ~clock config site env install ~bundle ~target_glibc
  in
  let (result, changes), records =
    if Feam_flightrec.Recorder.enabled () then
      Feam_flightrec.Recorder.capture run
    else (run (), [])
  in
  let drawn = Feam_toolchain.Build_id.serial () - first_id in
  let ids =
    List.init drawn (fun i ->
        Feam_toolchain.Build_id.of_serial ~site_name:(Site.name site)
          (first_id + i + 1))
  in
  let probes, copies =
    match bundle with
    | Some b -> (b.Bundle.probes, b.Bundle.copies)
    | None -> ([], [])
  in
  let content kind =
    match kind with
    | Vfs.Elf bytes -> (
      match
        ( index_of (fun p -> p.Bundle.probe_bytes == bytes) probes,
          index_of (fun c -> c.Bdc.copy_bytes == bytes) copies )
      with
      | Some i, _ -> Shipped_probe i
      | None, Some i -> Bundle_copy i
      | None, None -> (
        match stamps_in bytes ids with
        | [] -> Literal kind
        | stamps ->
          let blank = Bytes.of_string bytes in
          List.iter
            (fun (off, i) ->
              Bytes.fill blank off (String.length (List.nth ids i)) '\000')
            stamps;
          let blank = Bytes.to_string blank in
          let template =
            match Hashtbl.find_opt memo.templates blank with
            | Some shared -> shared
            | None ->
              Hashtbl.add memo.templates blank blank;
              blank
          in
          Compiled
            {
              template;
              stamps;
              provenance = Feam_toolchain.Provenance.find bytes;
            }))
    | kind -> Literal kind
  in
  let write (path, change) =
    match change with
    | Some { Vfs.kind; declared_size } -> Wrote (path, declared_size, content kind)
    | None -> Removed path
  in
  ( result,
    {
      fx_writes = List.map write changes;
      fx_charges = Feam_util.Sim_clock.charges clock;
      fx_build_ids = drawn;
      fx_records = records;
    } )

(* Redo a miss's site writes and build-id draws on a hit, against the
   hit's own bundle. *)
let redo_writes site ~bundle fx =
  let vfs = Site.vfs site in
  let ids =
    Array.init fx.fx_build_ids (fun _ ->
        Feam_toolchain.Build_id.next ~site_name:(Site.name site))
  in
  let nth_probe i =
    (List.nth (Option.get bundle).Bundle.probes i).Bundle.probe_bytes
  in
  let nth_copy i = (List.nth (Option.get bundle).Bundle.copies i).Bdc.copy_bytes in
  List.iter
    (function
      | Removed path -> Vfs.remove vfs path
      | Wrote (path, declared_size, content) -> (
        let add kind = Vfs.add ~declared_size vfs path kind in
        match content with
        | Literal kind -> add kind
        | Shipped_probe i -> add (Vfs.Elf (nth_probe i))
        | Bundle_copy i -> add (Vfs.Elf (nth_copy i))
        | Compiled { template; stamps; provenance } ->
          let b = Bytes.of_string template in
          List.iter
            (fun (off, i) ->
              Bytes.blit_string ids.(i) 0 b off (String.length ids.(i)))
            stamps;
          let image = Bytes.to_string b in
          add (Vfs.Elf image);
          Option.iter (Feam_toolchain.Provenance.register image) provenance))
    fx.fx_writes

(* The held-back effects, landed in their original order. *)
let settle ?clock fx =
  List.iter (Cost.charge clock) fx.fx_charges;
  Feam_flightrec.Recorder.replay fx.fx_records

let memoized ?clock config site env install ~bundle ~target_glibc memo =
  let key =
    Digest.string (memo_key config site env install ~bundle ~target_glibc)
  in
  match Hashtbl.find_opt memo.entries key with
  | Some (result, fx) ->
    Feam_obs.Metrics.incr "probe.memo.hit";
    Feam_obs.Trace.set_attr "memo" (Feam_obs.Span.Str "hit");
    redo_writes site ~bundle fx;
    settle ?clock fx;
    result
  | None ->
    Feam_obs.Metrics.incr "probe.memo.miss";
    Feam_obs.Trace.set_attr "memo" (Feam_obs.Span.Str "miss");
    let result, fx =
      capture_probes memo config site env install ~bundle ~target_glibc
    in
    Hashtbl.replace memo.entries key (result, fx);
    settle ?clock fx;
    result

(* Full stack test, journaled and counted; memoized inside {!with_memo}. *)
let test_stack ?clock config site env install ~(bundle : Bundle.t option)
    ~target_glibc : probe_result =
  Feam_obs.Trace.with_span "probe.test_stack"
    ~attrs:
      [ ("stack", Feam_obs.Span.Str (Stack_install.module_name install)) ]
  @@ fun () ->
  let record result =
    (match result with
    | Ok () ->
      Feam_obs.Metrics.incr "edc.probe_successes";
      Feam_obs.Trace.set_attr "result" (Feam_obs.Span.Str "ok")
    | Error why ->
      Feam_obs.Metrics.incr "edc.probe_failures";
      Feam_obs.Trace.set_attr "result" (Feam_obs.Span.Str "failed");
      Feam_obs.Trace.set_attr "failure" (Feam_obs.Span.Str why));
    Feam_flightrec.Recorder.evidence ~stage:"probe" ~kind:"test_stack"
      [
        ( "stack",
          Feam_util.Json.Str (Stack_install.module_name install) );
        ( "result",
          Feam_util.Json.Str
            (match result with Ok () -> "ok" | Error _ -> "failed") );
        ( "failure",
          match result with
          | Ok () -> Feam_util.Json.Null
          | Error why -> Feam_util.Json.Str why );
      ];
    result
  in
  record
  @@
  match !memo with
  | None -> run_probes ?clock config site env install ~bundle ~target_glibc
  | Some memo ->
    memoized ?clock config site env install ~bundle ~target_glibc memo
