(* Tests for base64 and the bundle artifact format. *)

open Feam_util
open Feam_sysmodel
open Feam_core

(* -- Base64 ----------------------------------------------------------------- *)

let test_base64_vectors () =
  (* RFC 4648 test vectors *)
  List.iter
    (fun (plain, encoded) ->
      Alcotest.(check string) ("encode " ^ plain) encoded (Base64.encode plain);
      Alcotest.(check string) ("decode " ^ encoded) plain (Base64.decode_exn encoded))
    [
      ("", ""); ("f", "Zg=="); ("fo", "Zm8="); ("foo", "Zm9v");
      ("foob", "Zm9vYg=="); ("fooba", "Zm9vYmE="); ("foobar", "Zm9vYmFy");
    ]

let test_base64_binary () =
  let all_bytes = String.init 256 Char.chr in
  Alcotest.(check string) "all byte values" all_bytes
    (Base64.decode_exn (Base64.encode all_bytes))

let test_base64_rejects () =
  (match Base64.decode "abc" with
  | Error Base64.Bad_length -> ()
  | _ -> Alcotest.fail "expected Bad_length");
  match Base64.decode "ab!=" with
  | Error (Base64.Bad_character '!') -> ()
  | _ -> Alcotest.fail "expected Bad_character"

let gen_bytes = QCheck.Gen.(map Bytes.to_string (bytes_size (int_range 0 512)))

let prop_base64_roundtrip =
  QCheck.Test.make ~name:"base64: roundtrip" ~count:300
    (QCheck.make ~print:String.escaped gen_bytes) (fun s ->
      Base64.decode (Base64.encode s) = Ok s)

let prop_base64_length =
  QCheck.Test.make ~name:"base64: output length" ~count:300
    (QCheck.make ~print:String.escaped gen_bytes) (fun s ->
      String.length (Base64.encode s) = (String.length s + 2) / 3 * 4)

(* -- Bundle round trip --------------------------------------------------------- *)

let make_bundle () =
  let site, installs = Fixtures.small_site () in
  let path, install =
    Fixtures.compiled_binary ~program:Fixtures.fortran_program site installs
  in
  let env = Fixtures.session_env site install in
  Fixtures.run_exn
    (Phases.source_phase Config.default site env ~binary_path:path)

let test_bundle_roundtrip () =
  let bundle = make_bundle () in
  let text = Bundle_io.render bundle in
  Alcotest.(check bool) "has magic" true
    (String.starts_with ~prefix:Bundle_io.magic text);
  let bundle' = Fixtures.run_exn (Bundle_io.parse text) in
  Alcotest.(check string) "created at" bundle.Bundle.created_at
    bundle'.Bundle.created_at;
  Alcotest.(check bool) "binary bytes" true
    (bundle.Bundle.binary_bytes = bundle'.Bundle.binary_bytes);
  Alcotest.(check int) "copy count" (List.length bundle.Bundle.copies)
    (List.length bundle'.Bundle.copies);
  Alcotest.(check int) "probe count" (List.length bundle.Bundle.probes)
    (List.length bundle'.Bundle.probes);
  Alcotest.(check int) "library bytes" (Bundle.library_bytes bundle)
    (Bundle.library_bytes bundle');
  (* descriptions survive with derived fields recomputed *)
  let d = bundle.Bundle.binary_description
  and d' = bundle'.Bundle.binary_description in
  Alcotest.(check (list string)) "needed" d.Description.needed d'.Description.needed;
  Alcotest.(check bool) "required glibc" true
    (d.Description.required_glibc = d'.Description.required_glibc);
  Alcotest.(check bool) "mpi ident survives" true
    ((d.Description.mpi <> None) = (d'.Description.mpi <> None));
  (* copy bytes are identical after the round trip *)
  List.iter2
    (fun (a : Bdc.library_copy) (b : Bdc.library_copy) ->
      Alcotest.(check string) "copy request" a.Bdc.copy_request b.Bdc.copy_request;
      Alcotest.(check bool) "copy bytes equal" true
        (a.Bdc.copy_bytes = b.Bdc.copy_bytes))
    bundle.Bundle.copies bundle'.Bundle.copies;
  (* source discovery survives *)
  Alcotest.(check bool) "discovery glibc" true
    (bundle.Bundle.source_discovery.Discovery.glibc
    = bundle'.Bundle.source_discovery.Discovery.glibc)

let test_parsed_bundle_usable_for_target_phase () =
  (* the deserialized bundle drives a target phase exactly like the
     original *)
  let bundle = make_bundle () in
  let bundle' = Fixtures.run_exn (Bundle_io.parse (Bundle_io.render bundle)) in
  let target, _ = Fixtures.small_site ~name:"t2" ~glibc:"2.12" () in
  Vfs.remove_tree (Site.vfs target) "/tmp/feam";
  let report =
    Fixtures.run_exn
      (Phases.target_phase Config.default target (Site.base_env target)
         ~bundle:bundle' ())
  in
  Alcotest.(check bool) "evaluates" true
    (Predict.is_ready (Report.prediction report)
    || Predict.reasons (Report.prediction report) <> [])

let test_parse_rejects_garbage () =
  Alcotest.(check bool) "no magic" true (Result.is_error (Bundle_io.parse "hello"));
  Alcotest.(check bool) "empty" true (Result.is_error (Bundle_io.parse ""));
  Alcotest.(check bool) "missing description" true
    (Result.is_error (Bundle_io.parse (Bundle_io.magic ^ "\ncreated-at: x\n")))

let test_parse_bad_line () =
  let text = Bundle_io.magic ^ "\ncreated-at: x\nnot a key value line\n" in
  match Bundle_io.parse text with
  | Error e -> Alcotest.(check bool) "line number" true
      (Str_split.contains ~sub:"line 3" e)
  | Ok _ -> Alcotest.fail "expected parse error"

(* A manifest reader shown a bundle names the magic it expected. *)
let test_manifest_magic_error () =
  match Bundle_io.parse_manifest (Bundle_io.magic ^ "\n") with
  | Error e ->
    Alcotest.(check string) "names the manifest magic"
      "bundle parse error at line 1: missing FEAM-MANIFEST 1 magic" e
  | Ok _ -> Alcotest.fail "bundle accepted as a manifest"

(* [bundle] loaded as a bundle and as a manifest: the declared-size
   checks hold in both magics. *)
let load_both bundle =
  let manifest =
    Bundle_manifest.of_bundle (Feam_depot.Store.create ()) bundle
  in
  [
    ( "bundle",
      Result.map ignore (Bundle_io.parse_checked (Bundle_io.render bundle)) );
    ( "manifest",
      Result.map ignore
        (Bundle_io.parse_manifest_checked (Bundle_io.render_manifest manifest))
    );
  ]

let expect_malformed message results =
  List.iter
    (fun (what, r) ->
      match r with
      | Error (Bundle_io.Malformed m) -> Alcotest.(check string) what message m
      | Error e ->
        Alcotest.failf "%s: wrong error: %s" what
          (Bundle_io.load_error_to_string e)
      | Ok () -> Alcotest.failf "%s: accepted, expected %S" what message)
    results

(* The fixture bundle with its first [n] copies declaring [size] bytes. *)
let with_declared_sizes n size =
  let bundle = make_bundle () in
  if List.length bundle.Bundle.copies < n then
    Alcotest.failf "fixture bundle has fewer than %d copies" n;
  let copies =
    List.mapi
      (fun i c -> if i < n then { c with Bdc.copy_declared_size = size } else c)
      bundle.Bundle.copies
  in
  { bundle with Bundle.copies }

(* A negative declared size is malformed in both magics, whichever
   section carries it. *)
let test_negative_declared_size () =
  expect_malformed "[copy] section: negative declared-size -999999"
    (load_both (with_declared_sizes 1 (-999999)))

(* A declared size above 2^40 is malformed in both magics: two copies
   of [max_int] bytes would wrap [Bundle.total_bytes] and the planner's
   sums.  2^40 itself still loads. *)
let test_huge_declared_size () =
  expect_malformed
    (Printf.sprintf "[copy] section: declared-size %d exceeds 2^40" max_int)
    (load_both (with_declared_sizes 2 max_int));
  List.iter
    (fun (what, r) ->
      match r with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "%s: declared-size 2^40 rejected: %s" what
          (Bundle_io.load_error_to_string e))
    (load_both (with_declared_sizes 2 (1 lsl 40)))

(* -- Loader hardening: entry names that collide or escape ---------------------- *)

let test_parse_checked_accepts_clean () =
  let bundle = make_bundle () in
  match Bundle_io.parse_checked (Bundle_io.render bundle) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Bundle_io.load_error_to_string e)

let test_parse_checked_rejects_duplicate_copy () =
  let bundle = make_bundle () in
  let dup =
    match bundle.Bundle.copies with
    | c :: _ as copies -> { bundle with Bundle.copies = c :: copies }
    | [] -> Alcotest.fail "fixture bundle has no copies"
  in
  match Bundle_io.parse_checked (Bundle_io.render dup) with
  | Error (Bundle_io.Unsafe_entry { issue = Bundle_io.Duplicate; name; _ }) ->
    Alcotest.(check string) "names the colliding entry"
      (List.hd bundle.Bundle.copies).Bdc.copy_request name
  | Error e -> Alcotest.failf "wrong error: %s" (Bundle_io.load_error_to_string e)
  | Ok _ -> Alcotest.fail "duplicate entry accepted"

let test_parse_checked_rejects_traversal_probe () =
  let bundle = make_bundle () in
  let evil =
    {
      bundle with
      Bundle.probes =
        List.map
          (fun p -> { p with Bundle.probe_name = "../" ^ p.Bundle.probe_name })
          bundle.Bundle.probes;
    }
  in
  if evil.Bundle.probes = [] then Alcotest.fail "fixture bundle has no probes";
  match Bundle_io.parse_checked (Bundle_io.render evil) with
  | Error (Bundle_io.Unsafe_entry { issue = Bundle_io.Traversal; name; _ }) ->
    Alcotest.(check bool) "names the escaping entry" true
      (Bundle_io.name_traverses name)
  | Error e -> Alcotest.failf "wrong error: %s" (Bundle_io.load_error_to_string e)
  | Ok _ -> Alcotest.fail "traversal entry accepted"

let test_name_traverses () =
  List.iter
    (fun (name, expected) ->
      Alcotest.(check bool) name expected (Bundle_io.name_traverses name))
    [
      ("../etc/passwd", true); ("a/../b", true); ("a/b/..", true);
      ("..", true); ("libc.so.6", false); ("lib..so", false);
      ("a..b/c", false); ("", false);
    ]

let suite =
  ( "bundle-io",
    [
      Alcotest.test_case "base64 vectors" `Quick test_base64_vectors;
      Alcotest.test_case "base64 binary" `Quick test_base64_binary;
      Alcotest.test_case "base64 rejects" `Quick test_base64_rejects;
      Qseed.to_alcotest prop_base64_roundtrip;
      Qseed.to_alcotest prop_base64_length;
      Alcotest.test_case "bundle roundtrip" `Quick test_bundle_roundtrip;
      Alcotest.test_case "parsed bundle drives target phase" `Quick
        test_parsed_bundle_usable_for_target_phase;
      Alcotest.test_case "parse rejects garbage" `Quick test_parse_rejects_garbage;
      Alcotest.test_case "parse error line numbers" `Quick test_parse_bad_line;
      Alcotest.test_case "manifest magic error names FEAM-MANIFEST" `Quick
        test_manifest_magic_error;
      Alcotest.test_case "negative declared-size is malformed" `Quick
        test_negative_declared_size;
      Alcotest.test_case "declared-size above 2^40 is malformed" `Quick
        test_huge_declared_size;
      Alcotest.test_case "parse_checked accepts clean artifact" `Quick
        test_parse_checked_accepts_clean;
      Alcotest.test_case "parse_checked rejects duplicate copy" `Quick
        test_parse_checked_rejects_duplicate_copy;
      Alcotest.test_case "parse_checked rejects traversal probe" `Quick
        test_parse_checked_rejects_traversal_probe;
      Alcotest.test_case "name_traverses" `Quick test_name_traverses;
    ] )
