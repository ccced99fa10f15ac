(* Serialization of source-phase bundles.

   The paper's workflow has the user copy the source phase's output to
   each target site (§V); this module defines that artifact: a
   line-oriented text container with base64-embedded ELF images.  The
   format is self-contained — descriptions are stored as their primitive
   fields and the derived ones (required C library version, MPI
   identification) are recomputed on load, so a bundle written by one
   FEAM version parses under another as long as the primitives hold. *)

open Feam_util

let magic = "FEAM-BUNDLE 1"
let manifest_magic = "FEAM-MANIFEST 1"

(* -- rendering ------------------------------------------------------------ *)

let opt_field = function None -> "-" | Some s -> s

let render_description buf prefix (d : Description.t) =
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "%spath: %s\n" prefix d.Description.path;
  addf "%sformat: %s\n" prefix d.Description.file_format;
  addf "%ssoname: %s\n" prefix
    (opt_field (Option.map Soname.to_string d.Description.soname));
  addf "%sneeded: %s\n" prefix (String.concat "," d.Description.needed);
  addf "%srpath: %s\n" prefix (opt_field d.Description.rpath);
  addf "%srunpath: %s\n" prefix (opt_field d.Description.runpath);
  List.iter
    (fun (file, versions) ->
      addf "%sverneed: %s=%s\n" prefix file (String.concat ";" versions))
    d.Description.verneeds;
  addf "%scompiler: %s\n" prefix
    (opt_field d.Description.provenance.Objdump_parse.compiler_banner);
  addf "%sbuild-os: %s\n" prefix
    (opt_field d.Description.provenance.Objdump_parse.build_os)

let render_discovery buf (disc : Discovery.t) =
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "[discovery]\n";
  addf "env-type: %s\n"
    (match disc.Discovery.env_type with
    | `Guaranteed -> "guaranteed"
    | `Target -> "target");
  addf "machine: %s\n"
    (opt_field (Option.map Feam_elf.Types.machine_uname disc.Discovery.machine));
  addf "os: %s\n" (opt_field disc.Discovery.os);
  addf "kernel: %s\n" (opt_field disc.Discovery.kernel);
  addf "glibc: %s\n"
    (opt_field (Option.map Version.to_string disc.Discovery.glibc));
  List.iter
    (fun s -> addf "stack: %s\n" s.Discovery.slug)
    disc.Discovery.stacks;
  addf "current-stack: %s\n"
    (opt_field (Option.map (fun s -> s.Discovery.slug) disc.Discovery.current_stack))

(* [render_container ~magic ~payload ~encode b] writes the container
   both magics share (DESIGN §9).  Only the magic line and the payload
   lines differ: each [binary], [copy] and [probe] payload is written as
   "[payload]: [encode bytes]". *)
let render_container ~magic ~payload ~encode (b : Bundle.t) : string =
  let buf = Buffer.create 65536 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "%s\n" magic;
  addf "created-at: %s\n" b.Bundle.created_at;
  addf "unlocatable: %s\n" (String.concat "," b.Bundle.unlocatable);
  addf "\n[description]\n";
  render_description buf "" b.Bundle.binary_description;
  (match b.Bundle.binary_bytes with
  | Some bytes ->
    addf "\n[binary]\n";
    addf "declared-size: %d\n" b.Bundle.binary_declared_size;
    addf "%s: %s\n" payload (encode bytes)
  | None -> ());
  List.iter
    (fun (c : Bdc.library_copy) ->
      addf "\n[copy]\n";
      addf "request: %s\n" c.Bdc.copy_request;
      addf "origin: %s\n" c.Bdc.copy_origin_path;
      addf "declared-size: %d\n" c.Bdc.copy_declared_size;
      render_description buf "desc-" c.Bdc.copy_description;
      addf "%s: %s\n" payload (encode c.Bdc.copy_bytes))
    b.Bundle.copies;
  List.iter
    (fun (p : Bundle.probe) ->
      addf "\n[probe]\n";
      addf "name: %s\n" p.Bundle.probe_name;
      addf "stack: %s\n" p.Bundle.probe_stack_slug;
      addf "declared-size: %d\n" p.Bundle.probe_declared_size;
      addf "%s: %s\n" payload (encode p.Bundle.probe_bytes))
    b.Bundle.probes;
  addf "\n";
  render_discovery buf b.Bundle.source_discovery;
  Buffer.contents buf

(* [render bundle] serializes a bundle to its textual artifact. *)
let render (b : Bundle.t) : string =
  render_container ~magic ~payload:"data" ~encode:Base64.encode b

(* [render_manifest m] serializes a depot-backed manifest: the bundle
   container with every payload's content key in its place, written on
   an `object:` line instead of embedded `data:`. *)
let render_manifest (m : Bundle_manifest.t) : string =
  let hex = Feam_depot.Chash.to_hex in
  render_container ~magic:manifest_magic ~payload:"object" ~encode:Fun.id
    {
      Bundle.created_at = m.man_created_at;
      binary_description = m.man_description;
      binary_bytes = Option.map (fun (key, _) -> hex key) m.man_binary;
      binary_declared_size = Option.fold ~none:0 ~some:snd m.man_binary;
      copies =
        List.map
          (fun (e : Bundle_manifest.entry) ->
            {
              Bdc.copy_request = e.me_request;
              copy_origin_path = e.me_origin;
              copy_bytes = hex e.me_key;
              copy_declared_size = e.me_size;
              copy_description = e.me_description;
            })
          m.man_entries;
      unlocatable = m.man_unlocatable;
      probes =
        List.map
          (fun (p : Bundle_manifest.probe_ref) ->
            {
              Bundle.probe_name = p.mp_name;
              probe_bytes = hex p.mp_key;
              probe_stack_slug = p.mp_stack;
              probe_declared_size = p.mp_size;
            })
          m.man_probes;
      source_discovery = m.man_discovery;
    }

(* -- parsing ---------------------------------------------------------------- *)

type parse_error = { line : int; message : string }

let parse_error_to_string e =
  Printf.sprintf "bundle parse error at line %d: %s" e.line e.message

(* What makes an entry name unsafe to load (DESIGN §9): [Duplicate]
   names collide in the staging directory, [Traversal] names escape it
   (the target phase stages entries at [staging ^ "/" ^ name]). *)
type entry_issue = Duplicate | Traversal

let entry_issue_to_string = function
  | Duplicate -> "duplicate entry name"
  | Traversal -> "path traversal in entry name"

type load_error =
  | Syntax of parse_error
  | Malformed of string
  | Unsafe_entry of { section : string; name : string; issue : entry_issue }

let load_error_to_string = function
  | Syntax e -> parse_error_to_string e
  | Malformed m -> m
  | Unsafe_entry { section; name; issue } ->
    Printf.sprintf "unsafe [%s] entry %S: %s" section name
      (entry_issue_to_string issue)

(* A name with a ".." path component escapes the staging directory when
   the target phase concatenates it onto the staging root. *)
let name_traverses name =
  String.split_on_char '/' name |> List.exists (( = ) "..")

(* Cut the text into sections: a header block plus "[name]" blocks of
   (key, value) pairs, preserving repeated keys in order. *)
let sectionize ~magic text =
  let lines = String.split_on_char '\n' text in
  let err line message = Error { line; message } in
  let rec go lineno current sections = function
    | [] -> Ok (List.rev (current :: sections))
    | line :: rest ->
      let lineno = lineno + 1 in
      let line = String.trim line in
      if line = "" then go lineno current sections rest
      else if String.length line > 1 && line.[0] = '[' then
        if line.[String.length line - 1] <> ']' then
          err lineno "malformed section header"
        else
          let name = String.sub line 1 (String.length line - 2) in
          go lineno (name, []) (current :: sections) rest
      else
        match String.index_opt line ':' with
        | None -> err lineno ("expected 'key: value', got " ^ line)
        | Some i ->
          let key = String.trim (String.sub line 0 i) in
          let value =
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          in
          let name, fields = current in
          go lineno (name, (key, value) :: fields) sections rest
  in
  match lines with
  | first :: rest when String.trim first = magic -> (
    match go 1 ("", []) [] rest with
    | Ok sections ->
      Ok (List.map (fun (name, fields) -> (name, List.rev fields)) sections)
    | Error _ as e -> e)
  | _ -> err 1 (Printf.sprintf "missing %s magic" magic)

let field fields key = List.assoc_opt key fields
let fields_all fields key =
  List.filter_map (fun (k, v) -> if k = key then Some v else None) fields

let declared_size fields =
  Option.bind (field fields "declared-size") int_of_string_opt

(* The largest declared-size a section may carry, 1 TiB: with 2^16
   entries of at most 2^40 bytes, sums cannot overflow a 63-bit int. *)
let max_declared_size = 1 lsl 40

(* Reject, before any payload is decoded, duplicate and traversing entry
   names across the [copy] and [probe] sections, and a negative or
   oversized declared-size in any section. *)
let check_sections sections =
  let check section key seen fields =
    match field fields key with
    | None -> Ok seen
    | Some name ->
      if name_traverses name then
        Error (Unsafe_entry { section; name; issue = Traversal })
      else if List.mem name seen then
        Error (Unsafe_entry { section; name; issue = Duplicate })
      else Ok (name :: seen)
  in
  let rec go seen_copies seen_probes = function
    | [] -> Ok ()
    | (section, fields) :: rest -> (
      match (declared_size fields, section) with
      | Some n, _ when n < 0 ->
        Error
          (Malformed
             (Printf.sprintf "[%s] section: negative declared-size %d" section n))
      | Some n, _ when n > max_declared_size ->
        Error
          (Malformed
             (Printf.sprintf "[%s] section: declared-size %d exceeds 2^40"
                section n))
      | _, "copy" ->
        Result.bind (check "copy" "request" seen_copies fields) (fun seen ->
            go seen seen_probes rest)
      | _, "probe" ->
        Result.bind (check "probe" "name" seen_probes fields) (fun seen ->
            go seen_copies seen rest)
      | _ -> go seen_copies seen_probes rest)
  in
  go [] [] sections

let opt_of = function "-" | "" -> None | s -> Some s

let split_list = function
  | "" -> []
  | s -> String.split_on_char ',' s

let parse_description ~prefix fields : (Description.t, string) result =
  let get key = field fields (prefix ^ key) in
  let require key =
    match get key with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %s%s" prefix key)
  in
  match (require "path", require "format", require "needed") with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
  | Ok path, Ok file_format, Ok needed -> (
    match Objdump_parse.machine_of_format file_format with
    | None -> Error ("unknown file format: " ^ file_format)
    | Some (machine, elf_class) ->
      let verneeds =
        fields_all fields (prefix ^ "verneed")
        |> List.filter_map (fun entry ->
               match String.index_opt entry '=' with
               | None -> None
               | Some i ->
                 let file = String.sub entry 0 i in
                 let versions =
                   String.sub entry (i + 1) (String.length entry - i - 1)
                   |> String.split_on_char ';'
                   |> List.filter (( <> ) "")
                 in
                 Some (file, versions))
      in
      let needed = split_list needed in
      Ok
        {
          Description.path;
          file_format;
          machine;
          elf_class;
          soname = Option.bind (Option.bind (get "soname") opt_of) Soname.of_string;
          needed;
          rpath = Option.bind (get "rpath") opt_of;
          runpath = Option.bind (get "runpath") opt_of;
          verneeds;
          required_glibc = Description.required_glibc_of_verneeds verneeds;
          mpi = Mpi_ident.identify needed;
          provenance =
            {
              Objdump_parse.compiler_banner =
                Option.bind (get "compiler") opt_of;
              build_os = Option.bind (get "build-os") opt_of;
            };
        })

let parse_discovery fields : Discovery.t =
  let get key = Option.bind (field fields key) opt_of in
  let machine = Option.bind (get "machine") Feam_elf.Types.machine_of_uname in
  let stack_of_slug slug =
    Discovery.parse_stack_slug ~via:Discovery.Modules slug
  in
  {
    Discovery.env_type =
      (match field fields "env-type" with
      | Some "guaranteed" -> `Guaranteed
      | _ -> `Target);
    machine;
    elf_class = Option.map Feam_elf.Types.machine_class machine;
    os = get "os";
    kernel = get "kernel";
    glibc = Option.bind (get "glibc") Version.of_string;
    stacks = fields_all fields "stack" |> List.filter_map stack_of_slug;
    current_stack = Option.bind (get "current-stack") stack_of_slug;
  }

(* A [binary], [copy] or [probe] section as the container reader hands
   it back: its fields in file order, its declared size (absent or not an
   integer is [None]) and its payload line's value, still encoded. *)
type section = {
  fields : (string * string) list;
  size : int option;
  payload : (string, string) result;
}

type container = {
  created_at : string;
  unlocatable : string list;
  description : Description.t;
  binary : section option;
  copies : section list;
  probes : section list;
  discovery : Discovery.t;
}

let ( let* ) = Result.bind

(* [read_container ~magic ~payload text] reads either magic's container:
   the header, the [description] and [discovery] sections, and every
   [binary] (the first only), [copy] and [probe] section with its payload
   left raw.  {!check_sections} runs before anything is decoded. *)
let read_container ~magic ~payload text : (container, load_error) result =
  let* sections =
    Result.map_error (fun e -> Syntax e) (sectionize ~magic text)
  in
  let* () = check_sections sections in
  let all name =
    List.filter_map
      (fun (n, fields) -> if n = name then Some fields else None)
      sections
  in
  let first name = List.nth_opt (all name) 0 in
  let section fields =
    {
      fields;
      size = declared_size fields;
      payload =
        Option.to_result ~none:("missing " ^ payload ^ " field")
          (field fields payload);
    }
  in
  let header = Option.value (first "") ~default:[] in
  let* description =
    match first "description" with
    | None -> Error (Malformed "missing [description] section")
    | Some fields ->
      Result.map_error
        (fun m -> Malformed m)
        (parse_description ~prefix:"" fields)
  in
  Ok
    {
      created_at = Option.value (field header "created-at") ~default:"unknown";
      unlocatable =
        split_list (Option.value (field header "unlocatable") ~default:"");
      description;
      binary = Option.map section (first "binary");
      copies = List.map section (all "copy");
      probes = List.map section (all "probe");
      (* no [discovery] section reads as an empty guaranteed-site one *)
      discovery =
        parse_discovery
          (Option.value (first "discovery")
             ~default:[ ("env-type", "guaranteed") ]);
    }

(* [parse_checked text] reads a bundle artifact back, rejecting unsafe
   entry names (duplicates, path traversal) with a typed error.  A
   [binary], [copy] or [probe] section that does not decode is
   dropped. *)
let parse_checked (text : string) : (Bundle.t, load_error) result =
  let* c = read_container ~magic ~payload:"data" text in
  let data s =
    Result.bind s.payload (fun b64 ->
        Result.map_error Base64.error_to_string (Base64.decode b64))
  in
  let binary_bytes, binary_declared_size =
    match Option.map (fun s -> (s, data s)) c.binary with
    | Some (s, Ok bytes) -> (Some bytes, Option.value s.size ~default:0)
    | Some (_, Error _) | None -> (None, 0)
  in
  let copies =
    c.copies
    |> List.filter_map (fun s ->
           match
             ( field s.fields "request",
               parse_description ~prefix:"desc-" s.fields,
               data s )
           with
           | Some request, Ok description, Ok bytes ->
             Some
               {
                 Bdc.copy_request = request;
                 copy_origin_path =
                   Option.value (field s.fields "origin") ~default:"";
                 copy_bytes = bytes;
                 copy_declared_size =
                   Option.value s.size ~default:(String.length bytes);
                 copy_description = description;
               }
           | _ -> None)
  in
  let probes =
    c.probes
    |> List.filter_map (fun s ->
           match (field s.fields "name", data s) with
           | Some name, Ok bytes ->
             Some
               {
                 Bundle.probe_name = name;
                 probe_bytes = bytes;
                 probe_stack_slug =
                   Option.value (field s.fields "stack") ~default:"";
                 probe_declared_size =
                   Option.value s.size ~default:(String.length bytes);
               }
           | _ -> None)
  in
  Ok
    {
      Bundle.created_at = c.created_at;
      binary_description = c.description;
      binary_bytes;
      binary_declared_size;
      copies;
      unlocatable = c.unlocatable;
      probes;
      source_discovery = c.discovery;
    }

(* [parse text] is {!parse_checked} with errors rendered to strings. *)
let parse (text : string) : (Bundle.t, string) result =
  Result.map_error load_error_to_string (parse_checked text)

(* [parse_manifest_checked text] reads a depot-backed manifest artifact,
   applying the same checks as bundles.  Any section that does not
   decode rejects the whole manifest. *)
let parse_manifest_checked (text : string) :
    (Bundle_manifest.t, load_error) result =
  let* c = read_container ~magic:manifest_magic ~payload:"object" text in
  let key s =
    Result.bind s.payload (fun hex ->
        Option.to_result ~none:("malformed content key: " ^ hex)
          (Feam_depot.Chash.of_hex hex))
  in
  let require section name s =
    Option.to_result
      ~none:(Printf.sprintf "%s section missing %s field" section name)
      (field s.fields name)
  in
  let size s = Option.value s.size ~default:0 in
  (* [List.map] for a function that can fail: the first error wins *)
  let all_ok f items =
    List.fold_right
      (fun item acc ->
        let* acc = acc in
        let* x = f item in
        Ok (x :: acc))
      items (Ok [])
  in
  Result.map_error
    (fun m -> Malformed m)
    (let* man_binary =
       match c.binary with
       | None -> Ok None
       | Some s -> Result.map (fun k -> Some (k, size s)) (key s)
     in
     let* man_entries =
       all_ok
         (fun s ->
           let* request = require "copy" "request" s in
           let* description = parse_description ~prefix:"desc-" s.fields in
           let* key = key s in
           Ok
             {
               Bundle_manifest.me_request = request;
               me_key = key;
               me_size = size s;
               me_origin = Option.value (field s.fields "origin") ~default:"";
               me_description = description;
             })
         c.copies
     in
     let* man_probes =
       all_ok
         (fun s ->
           let* name = require "probe" "name" s in
           let* key = key s in
           Ok
             {
               Bundle_manifest.mp_name = name;
               mp_key = key;
               mp_size = size s;
               mp_stack = Option.value (field s.fields "stack") ~default:"";
             })
         c.probes
     in
     Ok
       {
         Bundle_manifest.man_created_at = c.created_at;
         man_description = c.description;
         man_binary;
         man_entries;
         man_unlocatable = c.unlocatable;
         man_probes;
         man_discovery = c.discovery;
       })

let parse_manifest (text : string) : (Bundle_manifest.t, string) result =
  Result.map_error load_error_to_string (parse_manifest_checked text)
