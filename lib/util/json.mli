(** Minimal JSON emitter and parser for machine-readable FEAM reports.
    ASCII-oriented (\\u escapes above 127 decode to a placeholder). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Compact (single-line) rendering with proper string escaping. *)
val render : t -> string

(** Parse a complete JSON document.  Arrays and objects may nest at
    most 512 deep; a deeper document is an [Error] naming the limit. *)
val parse : string -> (t, string) result

(** Object field lookup; [None] on non-objects and missing keys. *)
val member : string -> t -> t option

val to_string_opt : t -> string option
val to_int_opt : t -> int option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option

(** {2 Field accessors}

    [None] when the object lacks the field or it has another type. *)

val string_field : string -> t -> string option
val int_field : string -> t -> int option
val bool_field : string -> t -> bool option

(** An [Int] or a [Float] field, as a float. *)
val number_field : string -> t -> float option

(** A list field; absent or not a list means [[]]. *)
val list_field : string -> t -> t list

(** The string items of a list field; other items are dropped. *)
val strings_field : string -> t -> string list

(** [pairs_field ~key ~value field json]: the ([key], [value]) string
    pairs of the objects in list field [field]; items lacking either
    are dropped. *)
val pairs_field :
  key:string -> value:string -> string -> t -> (string * string) list

(** {2 Versioned JSONL documents} *)

(** The header gate of a versioned document: its first nonblank line is
    [{"type":hd_kind,"schema":N,...}] with [N <= hd_max_schema].  [hd_name] words
    the errors ("empty journal", "journal header: ..."). *)
type header = { hd_name : string; hd_kind : string; hd_max_schema : int }

(** [read_jsonl ?header step init text] folds [step] over the nonblank
    lines of [text], each parsed as JSON.  With [header] the first line
    is gated and returned (otherwise the returned header is [Null]).
    A line that does not parse, or that [step] rejects, stops the read
    with the error prefixed ["line N: "], N counting nonblank lines from
    1 (the header is line 1). *)
val read_jsonl :
  ?header:header ->
  ('a -> t -> ('a, string) result) ->
  'a ->
  string ->
  (t * 'a, string) result
