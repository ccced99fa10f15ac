(** Plain-text table rendering for evaluation reports that mirror the
    paper's tables. *)

type align = Left | Right | Center

type t

(** [make ?title ?aligns ~header rows] builds a table.
    @raise Invalid_argument when a row or the alignment list does not match
    the header width. *)
val make : ?title:string -> ?aligns:align list -> header:string list -> string list list -> t

val render : t -> string
val print : t -> unit

(** [percent num den] renders "num/den" as a percentage string, "n/a" when
    [den] is zero. *)
val percent : ?decimals:int -> int -> int -> string
