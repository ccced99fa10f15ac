(** Parses ELF images back into a {!Spec.t} plus section-level metadata.
    This is the only channel through which the migration framework and
    the dynamic-linker simulator see binaries. *)

type error =
  | Not_elf  (** missing \x7fELF magic *)
  | Unsupported of string  (** unknown class/endian/machine/type code *)
  | Malformed of string  (** structurally broken image *)

val error_to_string : error -> string

type section = {
  name : string;
  sh_type : int;
  sh_offset : int;
  sh_size : int;
  sh_link : int;
  sh_info : int;
  sh_addr : int;
}

type t

val spec : t -> Spec.t
val sections : t -> section list

(** Image size in bytes. *)
val size : t -> int

val section_by_name : t -> string -> section option

(** Parse an image.  Inside {!with_memo} the result is memoized on the
    bytes, so the returned value may be shared with earlier callers and
    must be treated as read-only. *)
val parse : string -> (t, error) result

(** [with_memo f] runs [f] with {!parse} memoized on the image bytes,
    [Error] results included.  The memo is bounded (two generations of
    128 entries, the older dropped when the younger fills) and dropped
    when [f] returns; a nested call shares the open memo.  Hits and
    misses count as [elf.parse_memo.hit] / [elf.parse_memo.miss]. *)
val with_memo : (unit -> 'a) -> 'a

(** @raise Invalid_argument when {!parse} would return an error. *)
val parse_exn : string -> t

(** Convenience: parse and return just the spec. *)
val spec_of_bytes : string -> (Spec.t, error) result
