(* Plain-text table rendering for evaluation reports that mirror the
   paper's tables. *)

type align = Left | Right | Center

type t = {
  title : string option;
  header : string list;
  rows : string list list;
  aligns : align list option;
}

let make ?title ?aligns ~header rows =
  List.iter
    (fun row ->
      if List.length row <> List.length header then
        invalid_arg "Table.make: row width does not match header")
    rows;
  (match aligns with
  | Some a when List.length a <> List.length header ->
    invalid_arg "Table.make: alignment width does not match header"
  | _ -> ());
  { title; header; rows; aligns }

let column_widths t =
  let ncols = List.length t.header in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  measure t.header;
  List.iter measure t.rows;
  widths

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = width - n in
    match align with
    | Left -> s ^ String.make fill ' '
    | Right -> String.make fill ' ' ^ s
    | Center ->
      let l = fill / 2 in
      String.make l ' ' ^ s ^ String.make (fill - l) ' '

let render t =
  let widths = column_widths t in
  let aligns =
    match t.aligns with
    | Some a -> Array.of_list a
    | None -> Array.make (Array.length widths) Left
  in
  let buf = Buffer.create 256 in
  let rule () =
    Array.iter (fun w -> Buffer.add_string buf ("+" ^ String.make (w + 2) '-')) widths;
    Buffer.add_string buf "+\n"
  in
  let emit_row row =
    List.iteri
      (fun i cell ->
        Buffer.add_string buf "| ";
        Buffer.add_string buf (pad aligns.(i) widths.(i) cell);
        Buffer.add_char buf ' ')
      row;
    Buffer.add_string buf "|\n"
  in
  (match t.title with
  | Some title ->
    Buffer.add_string buf title;
    Buffer.add_char buf '\n'
  | None -> ());
  rule ();
  emit_row t.header;
  rule ();
  List.iter emit_row t.rows;
  rule ();
  Buffer.contents buf

let print t = print_string (render t)

let percent ?(decimals = 0) num den =
  if den = 0 then "n/a"
  else Printf.sprintf "%.*f%%" decimals (100.0 *. float_of_int num /. float_of_int den)
