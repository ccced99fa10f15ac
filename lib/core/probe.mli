(** MPI stack probing (paper §III.B, §V.C): a stack is deemed usable only
    if a basic MPI program actually executes under it.

    Native probes (hello world compiled at the target) detect
    misconfigured stacks; foreign probes (shipped from the guaranteed
    environment, compiled with the application's stack) additionally
    detect ABI and floating-point defects that only foreign builds hit —
    the extended prediction's edge (§VI.C). *)

(** Directory probes are staged/compiled into at the target. *)
val probe_dir : string

type probe_result = (unit, string) result

(** The batch queue probes are submitted through: the user-configured
    queue when it exists at the site, the default (debug) queue
    otherwise. *)
val probe_queue :
  Config.t ->
  Feam_sysmodel.Site.t ->
  parallel:bool ->
  Feam_sysmodel.Batch.queue option

(** Compile and run a native MPI hello world under the install's stack;
    with a bundle, the probe runs with the bundle's staged copies
    exposed (a natively compiled probe can need them too, e.g. with a
    stale loader cache).  Fails when the site has no native compiler. *)
val native :
  ?clock:Feam_util.Sim_clock.t ->
  ?bundle:Bundle.t ->
  ?target_glibc:Feam_util.Version.t ->
  Config.t ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  Feam_sysmodel.Stack_install.t ->
  probe_result

(** Stage and run a shipped probe under the install's stack.  The probe
    travelled with the bundle, so its missing dependencies (typically the
    application's compiler runtime) are resolved from the bundle's copies
    before the run. *)
val foreign :
  ?clock:Feam_util.Sim_clock.t ->
  Config.t ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  Feam_sysmodel.Stack_install.t ->
  bundle:Bundle.t ->
  target_glibc:Feam_util.Version.t option ->
  Bundle.probe ->
  probe_result

(** Comment-stripped fingerprint of a probe image: a content hash of its
    parsed spec without the provenance comments, so recompiles of the
    same probe (each with a fresh build id) share one fingerprint while a
    real change (needed libraries, interpreter, ...) shows.  Unparsable
    images hash their raw bytes. *)
val probe_fingerprint : string -> string

(** [with_memo f] runs [f] with the probe-outcome memo on: within it,
    {!test_stack} calls with the same site, stack, environment, target C
    library, config and bundle content (probe fingerprints and library
    copy hashes) run the probes once.  A hit replays the miss's effects
    in order — site writes, build-id draws (re-stamping the compiled
    images), clock charges and journal records — so it leaves the state a
    second run would.  The memo is dropped when [f] returns; wrap only
    batches over one fixed world, since it never detects a site change.
    Hits and misses count as [probe.memo.hit] / [probe.memo.miss].

    The same scope opens {!Feam_elf.Reader.with_memo}, so every image is
    parsed once per batch, and {!Feam_toolchain.Provenance.with_scope},
    so the batch's provenance registrations are undone when it ends:
    build worlds outside the batch, since their provenance must outlive
    it. *)
val with_memo : (unit -> 'a) -> 'a

(** Full stack test: native probe when possible, then every shipped
    probe.  Passes only if all applicable probes pass; errors when no
    probe can be run at all (the stack cannot be vouched for).
    Memoized inside {!with_memo}. *)
val test_stack :
  ?clock:Feam_util.Sim_clock.t ->
  Config.t ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  Feam_sysmodel.Stack_install.t ->
  bundle:Bundle.t option ->
  target_glibc:Feam_util.Version.t option ->
  probe_result
