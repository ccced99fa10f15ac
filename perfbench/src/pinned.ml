(* The pinned verdict table of the migration matrix: one line per cell,
   "binary<TAB>target<TAB>basic<TAB>extended<TAB>staged", staged copies
   comma-joined.  The matrix workload scores every cell of every pass
   against it; a cell whose verdict differs counts as failed. *)

module Migrate = Feam_evalharness.Migrate
module Testset = Feam_evalharness.Testset

type row = {
  binary : string;
  target : string;
  basic : bool;
  extended : bool;
  staged : string list;
}

let key r = (r.binary, r.target)

let of_migration (m : Migrate.migration) =
  {
    binary = m.Migrate.binary.Testset.id;
    target = m.Migrate.target_name;
    basic = m.Migrate.basic_ready;
    extended = m.Migrate.extended_ready;
    staged = m.Migrate.staged_copies;
  }

let to_line r =
  String.concat "\t"
    [ r.binary; r.target; string_of_bool r.basic; string_of_bool r.extended;
      String.concat "," r.staged ]

let of_line line =
  match String.split_on_char '\t' line with
  | [ binary; target; basic; extended; staged ] ->
    let staged = if staged = "" then [] else String.split_on_char ',' staged in
    Ok { binary; target; basic = bool_of_string basic;
         extended = bool_of_string extended; staged }
  | _ -> Error line

let sort rows = List.sort (fun a b -> compare (key a) (key b)) rows

let render rows = String.concat "" (List.map (fun r -> to_line r ^ "\n") (sort rows))

let parse text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match of_line l with
         | Ok r -> r
         | Error l -> failwith ("pinned table: malformed line: " ^ l))

let load path = In_channel.with_open_bin path In_channel.input_all |> parse

let save path rows =
  Out_channel.with_open_bin path (fun oc -> output_string oc (render rows))

(* Cells of [observed] that fail against [pinned]: a verdict that
   differs, or a cell the pinned table does not know.  A pinned cell
   missing from [observed] counts too, so a pass that drops cells
   cannot look clean. *)
let failures ~pinned observed =
  let table = Hashtbl.create 1024 in
  List.iter (fun r -> Hashtbl.replace table (key r) r) pinned;
  let seen = Hashtbl.create 1024 in
  let wrong =
    List.filter
      (fun r ->
        Hashtbl.replace seen (key r) ();
        match Hashtbl.find_opt table (key r) with
        | Some p -> p <> r
        | None -> true)
      observed
  in
  let missing = List.filter (fun p -> not (Hashtbl.mem seen (key p))) pinned in
  List.length wrong + List.length missing
