(** Unique build identification: a process-global serial folded into a
    comment string in every built image, as real toolchains' build IDs
    and timestamps guarantee.  Keeps the bytes-keyed provenance registry
    collision-free and gives every probe compile an independent
    identity. *)

(** Reset the serial (done per evaluation world for reproducibility). *)
val reset : unit -> unit

(** A fresh .comment-style build-id string. *)
val next : site_name:string -> string

(** The serial of the last id issued (0 after {!reset}). *)
val serial : unit -> int

(** The id {!next} returns for serial [n] at [site_name]. *)
val of_serial : site_name:string -> int -> string
