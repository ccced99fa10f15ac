(** MPI implementation identification from link-level dependencies
    (paper Table I).

    MPI is an interface specification, not a link-level one: each
    implementation leaves a distinct fingerprint in a binary's DT_NEEDED
    list, which is how FEAM identifies the implementation a binary was
    compiled with. *)

type identification = {
  impl : Feam_mpi.Impl.t;
  evidence : string list;  (** the identifier libraries that matched *)
  fortran_bindings : bool;  (** Fortran MPI bindings are linked *)
}

(** [identify needed] inspects a DT_NEEDED list; [None] for serial
    binaries (no MPI implementation library present). *)
val identify : string list -> identification option

(** The rows of paper Table I, for reports and evaltool's Table I. *)
val table_rows : (string * string) list
