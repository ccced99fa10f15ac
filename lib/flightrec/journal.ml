(* Parsed journals: the read side of the flight recorder.  A journal
   is a JSONL document — a header line identifying the schema, then
   one record per line.  Unknown record types are preserved verbatim
   so newer journals degrade gracefully under older readers. *)

module Json = Feam_util.Json

type record = {
  seq : int;
  span : int option;
  kind : string;
  fields : (string * Json.t) list; (* everything but type/seq/span *)
}

type t = { schema : int; tool : string; records : record list }

let parse_record json =
  match json with
  | Json.Obj fields -> (
    match (Json.string_field "type" json, Json.int_field "seq" json) with
    | None, _ -> Error "record has no type"
    | _, None -> Error "record has no seq"
    | Some kind, Some seq ->
      let fields =
        List.filter
          (fun (k, _) -> k <> "type" && k <> "seq" && k <> "span")
          fields
      in
      Ok { seq; span = Json.int_field "span" json; kind; fields })
  | _ -> Error "record is not an object"

let parse body =
  (* Built per call, not at module initialisation: a record allocated at
     start-up shifts the heap, and with it the per-stage allocation
     figures of `evaltool --costs` and `feam stats`. *)
  let header =
    {
      Json.hd_name = "journal";
      hd_kind = "journal";
      hd_max_schema = Recorder.schema_version;
    }
  in
  Json.read_jsonl ~header
    (fun acc json -> Result.map (fun r -> r :: acc) (parse_record json))
    [] body
  |> Result.map (fun (h, records) ->
         {
           schema = Option.value (Json.int_field "schema" h) ~default:0;
           tool = Option.value (Json.string_field "tool" h) ~default:"";
           records = List.rev records;
         })

(* Accessors. *)

let find_all ~kind t = List.filter (fun r -> r.kind = kind) t.records

let find ~kind t = List.find_opt (fun r -> r.kind = kind) t.records

let last ~kind t =
  List.fold_left
    (fun acc r -> if r.kind = kind then Some r else acc)
    None t.records

let field key r = Json.member key (Json.Obj r.fields)

let str_field key r = Json.string_field key (Json.Obj r.fields)

(* Decision records for a determinant, in journal order; the last one
   is the verdict that stood. *)
let decisions ~determinant t =
  find_all ~kind:"decision" t
  |> List.filter (fun r -> str_field "determinant" r = Some determinant)

let last_decision ~determinant t =
  match List.rev (decisions ~determinant t) with [] -> None | r :: _ -> Some r

(* The [data] of the last payload record of the given kind. *)
let payload ~kind t =
  find_all ~kind:"payload" t
  |> List.filter (fun r -> str_field "kind" r = Some kind)
  |> List.rev
  |> function
  | [] -> None
  | r :: _ -> field "data" r
