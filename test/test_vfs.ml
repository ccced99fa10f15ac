(* Tests for the virtual filesystem. *)

open Feam_sysmodel

let mk () = Vfs.create ()

let test_add_find () =
  let fs = mk () in
  Vfs.add fs "/etc/hosts" (Vfs.Text "localhost");
  Alcotest.(check bool) "exists" true (Vfs.exists fs "/etc/hosts");
  Alcotest.(check bool) "missing" false (Vfs.exists fs "/etc/nothing");
  match Vfs.kind_of fs "/etc/hosts" with
  | Some (Vfs.Text body) -> Alcotest.(check string) "body" "localhost" body
  | _ -> Alcotest.fail "wrong kind"

let test_normalize () =
  let fs = mk () in
  Vfs.add fs "/a//b/./c" (Vfs.Text "x");
  Alcotest.(check bool) "collapsed" true (Vfs.exists fs "/a/b/c");
  Vfs.add fs "/a/b/../d" (Vfs.Text "y");
  Alcotest.(check bool) "dotdot" true (Vfs.exists fs "/a/d");
  Alcotest.check_raises "relative rejected"
    (Invalid_argument "Vfs: path must be absolute: \"x/y\"") (fun () ->
      ignore (Vfs.exists fs "x/y"))

let test_dirname_basename () =
  Alcotest.(check string) "dirname" "/a/b" (Vfs.dirname "/a/b/c");
  Alcotest.(check string) "dirname root" "/" (Vfs.dirname "/c");
  Alcotest.(check string) "basename" "c" (Vfs.basename "/a/b/c")

let test_symlink () =
  let fs = mk () in
  Vfs.add fs "/lib64/libz.so.1.2.3" (Vfs.Text "real");
  Vfs.add fs "/lib64/libz.so.1" (Vfs.Symlink "/lib64/libz.so.1.2.3");
  Vfs.add fs "/lib64/libz.so" (Vfs.Symlink "libz.so.1") (* relative link *);
  (match Vfs.resolve fs "/lib64/libz.so" with
  | Some (path, _) -> Alcotest.(check string) "chain" "/lib64/libz.so.1.2.3" path
  | None -> Alcotest.fail "unresolved");
  (* cycles terminate *)
  Vfs.add fs "/x" (Vfs.Symlink "/y");
  Vfs.add fs "/y" (Vfs.Symlink "/x");
  Alcotest.(check bool) "cycle" true (Vfs.resolve fs "/x" = None)

let test_list_dir () =
  let fs = mk () in
  Vfs.add fs "/opt/a/lib/libx.so" (Vfs.Text "");
  Vfs.add fs "/opt/a/bin/tool" (Vfs.Text "");
  Vfs.add fs "/opt/b" (Vfs.Text "");
  Alcotest.(check (list string)) "children" [ "a"; "b" ] (Vfs.list_dir fs "/opt");
  Alcotest.(check (list string)) "nested" [ "bin"; "lib" ] (Vfs.list_dir fs "/opt/a");
  Alcotest.(check bool) "is_dir" true (Vfs.is_dir fs "/opt/a");
  Alcotest.(check bool) "file not dir" false (Vfs.is_dir fs "/opt/b/zzz")

let test_find_by_basename () =
  let fs = mk () in
  Vfs.add fs "/lib64/libmpi.so.0" (Vfs.Text "");
  Vfs.add fs "/opt/x/lib/libmpi.so.0" (Vfs.Text "");
  Vfs.add fs "/lib64/libmpich.so.1" (Vfs.Text "");
  let hits = Vfs.find_by_basename fs (fun b -> b = "libmpi.so.0") in
  Alcotest.(check int) "two hits" 2 (List.length hits);
  let under = Vfs.find_under fs "/opt" (fun b -> String.length b > 0 && b.[0] = 'l') in
  Alcotest.(check (list string)) "scoped" [ "/opt/x/lib/libmpi.so.0" ] under

let test_sizes () =
  let fs = mk () in
  Vfs.add ~declared_size:1000 fs "/opt/a/one" (Vfs.Text "tiny");
  Vfs.add ~declared_size:2000 fs "/opt/a/two" (Vfs.Text "tiny");
  Vfs.add fs "/opt/b/three" (Vfs.Text "12345");
  Alcotest.(check (option int)) "declared" (Some 1000) (Vfs.file_size fs "/opt/a/one");
  Alcotest.(check (option int)) "default = content" (Some 5)
    (Vfs.file_size fs "/opt/b/three");
  Alcotest.(check int) "du" 3000 (Vfs.du fs "/opt/a")

let test_remove () =
  let fs = mk () in
  Vfs.add fs "/tmp/feam/a" (Vfs.Text "");
  Vfs.add fs "/tmp/feam/sub/b" (Vfs.Text "");
  Vfs.add fs "/tmp/other" (Vfs.Text "");
  Vfs.remove_tree fs "/tmp/feam";
  Alcotest.(check bool) "removed" false (Vfs.exists fs "/tmp/feam/a");
  Alcotest.(check bool) "removed nested" false (Vfs.exists fs "/tmp/feam/sub/b");
  Alcotest.(check bool) "sibling kept" true (Vfs.exists fs "/tmp/other");
  Vfs.remove fs "/tmp/other";
  Alcotest.(check bool) "single removed" false (Vfs.exists fs "/tmp/other")

let test_copy_independent () =
  let fs = mk () in
  Vfs.add fs "/a" (Vfs.Text "1");
  let fs2 = Vfs.copy fs in
  Vfs.add fs2 "/b" (Vfs.Text "2");
  Alcotest.(check bool) "copy has both" true (Vfs.exists fs2 "/a" && Vfs.exists fs2 "/b");
  Alcotest.(check bool) "original untouched" false (Vfs.exists fs "/b")

let test_overwrite () =
  let fs = mk () in
  Vfs.add fs "/f" (Vfs.Text "old");
  Vfs.add fs "/f" (Vfs.Text "new");
  match Vfs.kind_of fs "/f" with
  | Some (Vfs.Text b) -> Alcotest.(check string) "replaced" "new" b
  | _ -> Alcotest.fail "missing"

(* qcheck: normalize is idempotent and stays absolute *)
let gen_path =
  QCheck.Gen.(
    let seg = oneofl [ "a"; "bb"; "."; ".."; "lib64"; "x" ] in
    map (fun segs -> "/" ^ String.concat "/" segs) (list_size (int_range 0 6) seg))

let prop_normalize_idempotent =
  QCheck.Test.make ~name:"vfs: normalize idempotent" ~count:300
    (QCheck.make ~print:Fun.id gen_path) (fun p ->
      let n = Vfs.normalize p in
      Vfs.normalize n = n && String.length n > 0 && n.[0] = '/')

let suite =
  ( "vfs",
    [
      Alcotest.test_case "add/find" `Quick test_add_find;
      Alcotest.test_case "normalize" `Quick test_normalize;
      Alcotest.test_case "dirname/basename" `Quick test_dirname_basename;
      Alcotest.test_case "symlinks" `Quick test_symlink;
      Alcotest.test_case "list dir" `Quick test_list_dir;
      Alcotest.test_case "find by basename" `Quick test_find_by_basename;
      Alcotest.test_case "sizes" `Quick test_sizes;
      Alcotest.test_case "remove" `Quick test_remove;
      Alcotest.test_case "copy" `Quick test_copy_independent;
      Alcotest.test_case "overwrite" `Quick test_overwrite;
      Qseed.to_alcotest prop_normalize_idempotent;
    ] )
