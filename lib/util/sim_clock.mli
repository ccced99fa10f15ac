(** Simulated wall-clock accounting.  Site operations (tool invocations,
    compiles, batch-queue waits, probe runs) charge seconds to a clock so
    the evaluation can report FEAM phase durations (paper §VI.C: both
    phases always under five minutes). *)

type t

val create : unit -> t

(** A clock that also keeps each charge, so a computation's time can be
    re-charged elsewhere amount by amount (the float total then matches
    charging the original clock directly). *)
val recording : unit -> t

(** @raise Invalid_argument on negative durations. *)
val charge : t -> float -> unit

val elapsed : t -> float

(** A recording clock's charges, oldest first; [[]] for other clocks. *)
val charges : t -> float list

val reset : t -> unit

(** "3m42s"-style rendering. *)
val to_string : t -> string
