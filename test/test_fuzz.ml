(* Fuzz-robustness: byte-level mutations of valid inputs must never
   crash the parsers — every outcome is [Ok] or a typed [Error], no
   escaping exception, no hang. *)

let base_image =
  Feam_elf.Builder.build
    (Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_EXEC
       ~needed:[ "libmpi.so.0"; "libm.so.6"; "libc.so.6" ]
       ~rpath:"/opt/x/lib"
       ~verneeds:
         [
           {
             Feam_elf.Spec.vn_file = "libc.so.6";
             vn_versions = [ "GLIBC_2.2.5"; "GLIBC_2.5" ];
           };
         ]
       ~verdefs:[ "SOME_1.0" ]
       ~comments:[ "GCC: (GNU) 4.1.2" ]
       ~abi_note:(2, 6, 18)
       ~interp:"/lib64/ld-linux-x86-64.so.2" Feam_elf.Types.X86_64)

(* A symbol-rich image: a versioned export, versioned and unversioned
   imports, and a weak reference exercise the .dynsym/.gnu.version
   parsing paths under mutation. *)
let symbol_image =
  let sym name ~defined ~binding ~version =
    {
      Feam_elf.Spec.sym_name = name;
      sym_defined = defined;
      sym_binding = binding;
      sym_version = version;
    }
  in
  Feam_elf.Builder.build
    (Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_DYN ~soname:"libsym.so.1"
       ~needed:[ "libc.so.6" ]
       ~verneeds:
         [
           {
             Feam_elf.Spec.vn_file = "libc.so.6";
             vn_versions = [ "GLIBC_2.2.5"; "GLIBC_2.5" ];
           };
         ]
       ~verdefs:[ "libsym.so.1"; "SYM_1.0"; "SYM_2.0" ]
       ~dynsyms:
         [
           sym "sym_init" ~defined:true ~binding:Feam_elf.Spec.Global
             ~version:(Some "SYM_2.0");
           sym "memcpy" ~defined:false ~binding:Feam_elf.Spec.Global
             ~version:(Some "GLIBC_2.2.5");
           sym "plain_ref" ~defined:false ~binding:Feam_elf.Spec.Global
             ~version:None;
           sym "weak_hook" ~defined:false ~binding:Feam_elf.Spec.Weak
             ~version:None;
         ]
       Feam_elf.Types.X86_64)

(* Apply [n] random single-byte mutations, deterministically from a
   seed. *)
let mutate seed n (s : string) =
  let b = Bytes.of_string s in
  let g = Feam_util.Prng.create seed in
  for _ = 1 to n do
    let pos = Feam_util.Prng.int g (Bytes.length b) in
    Bytes.set b pos (Char.chr (Feam_util.Prng.int g 256))
  done;
  Bytes.to_string b

let gen_mutation = QCheck.Gen.(pair (int_range 0 100000) (int_range 1 24))

(* The @fuzz campaign runs the ELF, .dynsym, parse-memo and
   record-decoder properties in QCheck's long mode: this many times their
   tier-1 count. *)
let campaign_factor = 10

let prop_elf_reader_total =
  QCheck.Test.make ~long_factor:campaign_factor ~name:"fuzz: ELF reader is total on mutated images"
    ~count:800
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
       gen_mutation)
    (fun (seed, n) ->
      match Feam_elf.Reader.parse (mutate seed n base_image) with
      | Ok _ | Error _ -> true)

let prop_elf_reader_truncations =
  QCheck.Test.make ~long_factor:campaign_factor ~name:"fuzz: ELF reader is total on truncations" ~count:200
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(int_range 0 (String.length base_image)))
    (fun len ->
      match Feam_elf.Reader.parse (String.sub base_image 0 len) with
      | Ok _ | Error _ -> true)

let prop_symbol_tables_total =
  QCheck.Test.make ~long_factor:campaign_factor
    ~name:"fuzz: .dynsym/.gnu.version parsing is total on mutated images"
    ~count:800
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
       gen_mutation)
    (fun (seed, n) ->
      match Feam_elf.Reader.parse (mutate seed n symbol_image) with
      | Ok _ | Error _ -> true)

let prop_symbol_tables_truncations =
  QCheck.Test.make ~long_factor:campaign_factor
    ~name:"fuzz: .dynsym/.gnu.version parsing is total on truncations"
    ~count:200
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(int_range 0 (String.length symbol_image)))
    (fun len ->
      match Feam_elf.Reader.parse (String.sub symbol_image 0 len) with
      | Ok _ | Error _ -> true)

(* Named regression: a mutated [sh_size] near [max_int] once wrapped the
   reader's bounds check ([off + n > len]) negative, so the .comment
   read raised [Invalid_argument] instead of returning [Error]. *)
let test_bounds_check_overflow () =
  match Feam_elf.Reader.parse (mutate 60641 18 base_image) with
  | Ok _ -> Alcotest.fail "expected the mutated image to be rejected"
  | Error _ -> ()

(* -- the parse memo --------------------------------------------------- *)

(* Valid images from a provisioned site (its C library, MPI stacks and
   compiler runtimes) plus the two hand-built ones above. *)
let corpus_images =
  lazy
    (let site, _ = Fixtures.small_site ~name:"fuzzcorpus" () in
     let vfs = Feam_sysmodel.Site.vfs site in
     Feam_sysmodel.Vfs.all_paths vfs
     |> List.filter_map (fun path ->
            match Feam_sysmodel.Vfs.kind_of vfs path with
            | Some (Feam_sysmodel.Vfs.Elf bytes) -> Some bytes
            | _ -> None)
     |> List.sort_uniq String.compare
     |> List.append [ base_image; symbol_image ]
     |> Array.of_list)

(* A parse's answer in a form [=] compares: the parsed value is abstract. *)
let answer data =
  Result.map
    (fun t -> Feam_elf.Reader.(spec t, sections t, size t))
    (Feam_elf.Reader.parse data)

(* Picks are corpus images, mutated [n] times when [n > 0]; up to 600 of
   them, three in four mutated, so many sequences hold more distinct
   images than the memo's two generations of 128. *)
let gen_picks =
  QCheck.Gen.(
    list_size (int_range 1 600)
      (triple nat (int_range 0 100000)
         (frequency [ (1, return 0); (3, int_range 1 24) ])))

let prop_parse_memo_transparent =
  QCheck.Test.make ~long_factor:campaign_factor
    ~name:"fuzz: the parse memo never changes an answer" ~count:30
    (QCheck.make
       ~print:(fun picks ->
         String.concat " "
           (List.map
              (fun (i, seed, n) -> Printf.sprintf "%d:mutate %d %d" i seed n)
              picks))
       gen_picks)
    (fun picks ->
      let corpus = Lazy.force corpus_images in
      let images =
        List.map
          (fun (i, seed, n) ->
            let image = corpus.(i mod Array.length corpus) in
            if n = 0 then image else mutate seed n image)
          picks
      in
      (* the second pass re-parses the first images after every other *)
      let images = images @ images in
      let cold = List.map answer images in
      cold = Feam_elf.Reader.with_memo (fun () -> List.map answer images))

(* The memo holds two generations of 128: after 300 distinct images the
   first is gone, the last 172 (the old generation and the young one)
   are still held, and an [Error] is memoized like an [Ok]. *)
let test_parse_memo_evicts () =
  let counter name =
    Option.value ~default:0 (Feam_obs.Metrics.counter_value name)
  in
  let images =
    List.init 300 (fun i ->
        Feam_elf.Builder.build
          (Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_DYN
             ~soname:(Printf.sprintf "libmemo%d.so.1" i)
             Feam_elf.Types.X86_64))
  in
  let hits_of f =
    let hits = counter "elf.parse_memo.hit"
    and misses = counter "elf.parse_memo.miss" in
    f ();
    ( counter "elf.parse_memo.hit" - hits,
      counter "elf.parse_memo.miss" - misses )
  in
  Feam_elf.Reader.with_memo @@ fun () ->
  let parse image = ignore (Feam_elf.Reader.parse image) in
  Alcotest.(check (pair int int))
    "300 distinct images miss" (0, 300)
    (hits_of (fun () -> List.iter parse images));
  Alcotest.(check (pair int int))
    "the newest 172 are held" (172, 0)
    (hits_of (fun () ->
         List.iteri (fun i image -> if i >= 128 then parse image) images));
  Alcotest.(check (pair int int))
    "the first was evicted" (0, 1)
    (hits_of (fun () -> parse (List.hd images)));
  Alcotest.(check (pair int int))
    "an Error is memoized too" (1, 1)
    (hits_of (fun () ->
         parse "not an ELF image";
         parse "not an ELF image"))

(* A valid bundle, the source of the bundle and manifest documents. *)
let base_bundle =
  lazy
    (let site, installs = Fixtures.small_site ~name:"fuzzhome" () in
     let path, install =
       Fixtures.compiled_binary ~program:Fixtures.fortran_program site installs
     in
     let env = Fixtures.session_env site install in
     Fixtures.run_exn
       (Feam_core.Phases.source_phase Feam_core.Config.default site env
          ~binary_path:path))

let journal_text () =
  let module Recorder = Feam_flightrec.Recorder in
  let module Json = Feam_util.Json in
  let text = ref "" in
  Recorder.configure ~tool:"fuzz" ~emit:(fun body -> text := body) ();
  Recorder.evidence ~stage:"edc" ~kind:"glibc" [ ("version", Json.Str "2.5") ];
  Recorder.decision ~determinant:"glibc" ~verdict:"pass"
    [ ("required", Json.Str "2.3.4"); ("missing", Json.List []) ];
  Recorder.payload ~kind:"config" (Json.Str "retries = 2");
  Recorder.flush ();
  Recorder.disable ();
  !text

let epoch_text (b : Feam_core.Bundle.t) =
  Feam_drift.Snapshot.to_jsonl
    {
      Feam_drift.Snapshot.epoch = 3;
      seed = 42;
      label = "stale-ld-cache fir";
      sites =
        [
          {
            Feam_drift.Snapshot.ss_name = "fir";
            ss_ld_cache_current = false;
            ss_discovery = Feam_core.Discovery.to_json b.source_discovery;
            ss_inventory = [ ("/usr/lib64/libm.so.6", "0123abcd") ];
          };
        ];
      binaries =
        [
          {
            Feam_drift.Snapshot.bs_id = "cg.B";
            bs_home = "fuzzhome";
            bs_digest = "89ab";
            bs_error = None;
            bs_description =
              Feam_core.Description.to_json b.binary_description;
            bs_bundle = [ ("copy:libmpi.so.0", "cdef") ];
          };
        ];
      possession = [ ("fir", [ "cdef" ]) ];
      cells =
        [
          {
            Feam_drift.Snapshot.cl_binary = "cg.B";
            cl_target = "fir";
            cl_basic = true;
            cl_basic_reasons = [];
            cl_extended = false;
            cl_extended_reasons = [ "glibc 2.12 > 2.5" ];
            cl_staged = [ "libmpi.so.0" ];
          };
        ];
    }

let timeline_text () =
  let entry epoch ready =
    {
      Feam_drift.Timeline.te_epoch = epoch;
      te_hash = "0123";
      te_label = "";
      te_cells_total = 4;
      te_ready = ready;
      te_rate = float_of_int ready /. 4.;
      te_reevaluated = 2;
      te_flips =
        [
          {
            Feam_drift.Timeline.fe_cell = "cg.B->fir";
            fe_before = true;
            fe_after = false;
          };
        ];
      te_attribution =
        [
          {
            Feam_drift.Timeline.ae_atom = "fir ld_cache_current";
            ae_cells = 2;
            ae_to_ready = 0;
            ae_to_not_ready = 1;
          };
        ];
    }
  in
  Feam_drift.Timeline.render_history [ entry 0 4; entry 1 3 ]

let baseline_text () =
  Feam_analysis.Baseline.render
    (Feam_analysis.Baseline.of_findings
       [
         {
           Feam_core.Diagnose.rule_id = "abi-skew";
           level = Feam_core.Diagnose.Warn;
           subject = "libx.so.1";
           message = "two majors";
           fixit = None;
         };
       ])

let reproducer_text () =
  Feam_agree.Minimize.to_string
    {
      Feam_agree.Minimize.rp_seed = 42;
      rp_index = 17;
      rp_keep = [ 0; 2 ];
      rp_predictor = Feam_agree.Verdict.Tec;
      rp_failure = "unsatisfied-versions";
      rp_perturbations = [ "foreign-lib libfftw3.so.3" ];
    }

(* Every versioned record format FEAM reads back: (format, a valid
   rendered document, whether its decoder accepts a text). *)
let record_formats =
  lazy
    (let b = Lazy.force base_bundle in
     let manifest =
       Feam_core.Bundle_manifest.of_bundle (Feam_depot.Store.create ()) b
     in
     let decoder parse text = Result.is_ok (parse text) in
     let formats =
       [
         ( "bundle",
           Feam_core.Bundle_io.render b,
           decoder Feam_core.Bundle_io.parse );
         ( "manifest",
           Feam_core.Bundle_io.render_manifest manifest,
           decoder Feam_core.Bundle_io.parse_manifest );
         ("journal", journal_text (), decoder Feam_flightrec.Journal.parse);
         ("epoch", epoch_text b, decoder Feam_drift.Snapshot.of_jsonl);
         ( "timeline",
           timeline_text (),
           decoder Feam_drift.Timeline.parse_history );
         ("baseline", baseline_text (), decoder Feam_analysis.Baseline.parse);
         ( "reproducer",
           reproducer_text (),
           decoder Feam_agree.Minimize.of_string );
       ]
     in
     List.iter
       (fun (name, doc, decode) ->
         if not (decode doc) then invalid_arg (name ^ ": base document rejected"))
       formats;
     formats)

(* Crash inputs the campaign found, one per line of
   fixtures/fuzz_crashes.txt: "<input> mutate <seed> <n>" or
   "<input> truncate <len>", where <input> is [elf] or [dynsym] (an
   image for the ELF reader) or a record format of [record_formats]
   (a document for its decoder).  Each must decode to [Ok] or a typed
   [Error]. *)
let test_crash_fixtures () =
  let elf s = ignore (Feam_elf.Reader.parse s) in
  let target = function
    | "elf" -> (base_image, elf)
    | "dynsym" -> (symbol_image, elf)
    | other -> (
      match
        List.find_opt (fun (name, _, _) -> name = other)
          (Lazy.force record_formats)
      with
      | Some (_, doc, decode) -> (doc, fun s -> ignore (decode s))
      | None -> Alcotest.failf "fuzz_crashes.txt: unknown input %S" other)
  in
  let cases =
    In_channel.with_open_text "fixtures/fuzz_crashes.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check bool) "at least one recorded crash" true (cases <> []);
  List.iter
    (fun line ->
      let input, decode =
        match String.split_on_char ' ' line with
        | [ name; "mutate"; seed; n ] ->
          let doc, decode = target name in
          (mutate (int_of_string seed) (int_of_string n) doc, decode)
        | [ name; "truncate"; len ] ->
          let doc, decode = target name in
          (String.sub doc 0 (int_of_string len), decode)
        | _ -> Alcotest.failf "fuzz_crashes.txt: malformed line %S" line
      in
      match decode input with
      | () -> ()
      | exception e ->
        Alcotest.failf "%s: %s escaped the decoder" line (Printexc.to_string e))
    cases

(* Each case mutates every format's document with the same (seed, n): a
   decoder may accept or reject the bytes, but an exception escaping it
   fails the case and names the format. *)
let prop_record_decoders_total =
  QCheck.Test.make ~long_factor:campaign_factor
    ~name:"fuzz: record decoders are total on mutated documents" ~count:300
    (QCheck.make
       ~print:(fun (seed, n) ->
         Printf.sprintf "seed=%d n=%d (every format: %s)" seed n
           (String.concat ", "
              (List.map (fun (name, _, _) -> name) (Lazy.force record_formats))))
       gen_mutation)
    (fun (seed, n) ->
      List.for_all
        (fun (name, doc, decode) ->
          match decode (mutate seed n doc) with
          | (_ : bool) -> true
          | exception e ->
            QCheck.Test.fail_reportf "format=%s seed=%d n=%d: %s escaped" name
              seed n (Printexc.to_string e))
        (Lazy.force record_formats))

let prop_json_parser_total =
  QCheck.Test.make ~name:"fuzz: JSON parser is total on arbitrary strings"
    ~count:500
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(map Bytes.to_string (bytes_size (int_range 0 64))))
    (fun s ->
      match Feam_util.Json.parse s with Ok _ | Error _ -> true)

let prop_objdump_parser_total =
  QCheck.Test.make
    ~name:"fuzz: objdump parser is total on scrambled tool output" ~count:300
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
       gen_mutation)
    (fun (seed, n) ->
      let text =
        mutate seed n
          "x:     file format elf64-x86-64\n\nDynamic Section:\n  NEEDED  \
           libc.so.6\n\nVersion References:\n  required from libc.so.6:\n    \
           0x1 0x00 02 GLIBC_2.2.5\n"
      in
      match Feam_core.Objdump_parse.parse_objdump_p text with
      | Ok _ | Error _ -> true)

(* Includes the historical crash shape: an all-digit version component
   exceeding max_int used to raise an uncaught [Failure] inside
   [int_of_string]. *)
let gen_soname_like =
  QCheck.Gen.(
    oneof
      [
        map Bytes.to_string (bytes_size (int_range 0 32));
        map
          (fun (base, suffix) -> base ^ suffix)
          (pair
             (oneofl [ "libm"; "lib"; ""; "x" ])
             (oneofl
                [
                  ".so.1";
                  ".so.";
                  ".so..2";
                  ".so.1abc";
                  ".so.999999999999999999999999";
                  ".so.-1";
                  ".so.1.2.3";
                  "so.1";
                  ".so";
                ]));
      ])

let prop_soname_parser_total =
  QCheck.Test.make ~name:"fuzz: soname parser is total on arbitrary strings"
    ~count:800
    (QCheck.make ~print:String.escaped gen_soname_like)
    (fun s ->
      (match Feam_util.Soname.of_string_result s with
      | Ok _ | Error _ -> ());
      (* [of_string] agrees with [of_string_result] *)
      match (Feam_util.Soname.of_string s, Feam_util.Soname.of_string_result s) with
      | Some a, Ok b -> Feam_util.Soname.equal a b
      | None, Error _ -> true
      | _ -> false)

(* What `dune build @fuzz` runs, in long mode. *)
let campaign =
  [
    prop_elf_reader_total;
    prop_elf_reader_truncations;
    prop_symbol_tables_total;
    prop_symbol_tables_truncations;
    prop_record_decoders_total;
    prop_parse_memo_transparent;
  ]

let suite =
  ( "fuzz",
    [
      Alcotest.test_case "ELF reader: bounds-check overflow (mutate 60641 18)"
        `Quick test_bounds_check_overflow;
      Alcotest.test_case "fuzz: recorded crash fixtures stay total" `Quick
        test_crash_fixtures;
      Qseed.to_alcotest prop_elf_reader_total;
      Qseed.to_alcotest prop_elf_reader_truncations;
      Qseed.to_alcotest prop_symbol_tables_total;
      Qseed.to_alcotest prop_symbol_tables_truncations;
      Qseed.to_alcotest prop_record_decoders_total;
      Alcotest.test_case "parse memo: two generations of 128, Errors too"
        `Quick test_parse_memo_evicts;
      Qseed.to_alcotest prop_parse_memo_transparent;
      Qseed.to_alcotest prop_json_parser_total;
      Qseed.to_alcotest prop_objdump_parser_total;
      Qseed.to_alcotest prop_soname_parser_total;
    ] )
