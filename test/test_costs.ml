(* Tests for the cost observatory: labeled timers and their interplay
   with the metrics freeze, span allocation accounting, the Prometheus /
   JSONL exposition surfaces (byte-determinism under a fixed clock,
   label escaping round-trip), and the cost ledger's self-cost
   accounting over a manual clock. *)

open Feam_obs

(* -- Prof: labeled timers -------------------------------------------------- *)

let test_prof_records () =
  Feam_obs.reset ();
  let clock = Clock.manual () in
  Prof.set_clock (Clock.of_manual clock);
  Prof.set_enabled true;
  let result =
    Prof.with_timer ~labels:[ ("op", "x") ] "work" (fun () ->
        Clock.advance clock 250L;
        ignore (Sys.opaque_identity (String.make 64 'a'));
        7)
  in
  Alcotest.(check int) "thunk value returned" 7 result;
  Alcotest.(check (option int))
    "calls counter bumped"
    (Some 1)
    (Metrics.counter_value ~labels:[ ("op", "x") ] "work.calls");
  (match Metrics.histogram_value ~labels:[ ("op", "x") ] "work.ns" with
  | Some h ->
    Alcotest.(check int) "one duration sample" 1 h.Metrics.count;
    Alcotest.(check (float 0.0)) "duration from the clock" 250.0 h.Metrics.sum
  | None -> Alcotest.fail "work.ns histogram missing");
  (match Metrics.histogram_value ~labels:[ ("op", "x") ] "work.alloc_words" with
  | Some h ->
    Alcotest.(check int) "one allocation sample" 1 h.Metrics.count;
    if h.Metrics.sum < 8.0 then
      Alcotest.failf "allocation sum %.1f too small for a 64-byte string"
        h.Metrics.sum
  | None -> Alcotest.fail "work.alloc_words histogram missing");
  Feam_obs.reset ()

let test_prof_disabled_noop () =
  Feam_obs.reset ();
  (* reset leaves Prof disabled: timing a thunk must leave no trace *)
  let result = Prof.with_timer "idle" (fun () -> 3) in
  Alcotest.(check int) "thunk still runs" 3 result;
  Alcotest.(check (option int))
    "no counter recorded" None
    (Metrics.counter_value "idle.calls");
  Alcotest.(check bool)
    "no histogram recorded" true
    (Metrics.histogram_value "idle.ns" = None)

let test_prof_metrics_freeze () =
  Feam_obs.reset ();
  Prof.set_enabled true;
  Metrics.set_enabled false;
  let ran = ref false in
  Prof.with_timer "frozen" (fun () -> ran := true);
  Metrics.set_enabled true;
  Alcotest.(check bool) "timed code still runs under freeze" true !ran;
  Alcotest.(check (option int))
    "freeze suppresses the counter write" None
    (Metrics.counter_value "frozen.calls");
  Alcotest.(check bool)
    "freeze suppresses the histogram write" true
    (Metrics.histogram_value "frozen.ns" = None);
  Feam_obs.reset ()

(* -- Trace: span allocation accounting ------------------------------------- *)

let test_span_alloc_attrs () =
  Feam_obs.reset ();
  let spans = ref [] in
  let sink =
    { Sink.on_span = (fun s -> spans := s :: !spans); flush = (fun () -> ()) }
  in
  Trace.configure sink;
  Trace.set_record_alloc true;
  Trace.with_span "alloc" ~attrs:[ ("tag", Span.Str "t") ] (fun () ->
      (* small boxed values land on the minor heap, which Gc.minor_words
         tracks precisely even mid-cycle; opaque_identity keeps the
         optimizer from deleting the unused allocation *)
      ignore (Sys.opaque_identity (List.init 500 (fun i -> float_of_int i))));
  Feam_obs.reset ();
  match !spans with
  | [ span ] -> (
    (* declared attrs first, then the two alloc attrs *)
    (match span.Span.attrs with
    | ("tag", _) :: _ -> ()
    | _ -> Alcotest.fail "declared attr should come first");
    let words attr =
      match List.assoc_opt attr span.Span.attrs with
      | Some (Span.Float w) -> w
      | _ -> Alcotest.failf "%s attr missing" attr
    in
    (* 500 cons cells + 500 boxed floats: well over 1000 minor words *)
    if words "alloc_minor_w" < 1000.0 then
      Alcotest.failf "alloc_minor_w %.0f too small for 500 boxed floats"
        (words "alloc_minor_w");
    ignore (words "alloc_major_w"))
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

(* -- Expo: label escaping and exposition formats --------------------------- *)

let test_label_escape_roundtrip () =
  let cases =
    [
      "plain";
      "with \"quotes\"";
      "back\\slash";
      "new\nline";
      "all three: \\ \" \n mixed";
      "";
    ]
  in
  List.iter
    (fun v ->
      Alcotest.(check string)
        (Printf.sprintf "round-trip %S" v)
        v
        (Expo.unescape_label (Expo.escape_label v)))
    cases;
  (* escaped forms contain no raw specials *)
  let escaped = Expo.escape_label "a\"b\\c\nd" in
  Alcotest.(check bool)
    "no raw newline in escaped form" false
    (String.contains escaped '\n');
  Alcotest.(check string) "exact escaped form" "a\\\"b\\\\c\\nd" escaped;
  (* unknown escapes pass through rather than fail *)
  Alcotest.(check string) "unknown escape preserved" "\\x" (Expo.unescape_label "\\x")

let populate_registry () =
  Metrics.incr ~by:3 ~labels:[ ("site", "a\"b") ] "demo.requests";
  Metrics.set_gauge "demo.ratio" 0.5;
  Metrics.observe ~bounds:[| 10.0; 100.0 |] "demo.latency" 5.0;
  Metrics.observe ~bounds:[| 10.0; 100.0 |] "demo.latency" 50.0;
  Metrics.observe ~bounds:[| 10.0; 100.0 |] "demo.latency" 5000.0

let test_prom_format () =
  Feam_obs.reset ();
  populate_registry ();
  let out = Expo.render_prom () in
  Feam_obs.reset ();
  let has needle =
    let nl = String.length needle and ol = String.length out in
    let rec go i = i + nl <= ol && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun line ->
      if not (has line) then Alcotest.failf "missing %S in:\n%s" line out)
    [
      "# TYPE feam_demo_requests counter";
      "feam_demo_requests{site=\"a\\\"b\"} 3";
      "# TYPE feam_demo_ratio gauge";
      "feam_demo_ratio 0.5";
      "# TYPE feam_demo_latency histogram";
      (* buckets are cumulative: 1 at le=10, 2 at le=100, 3 total *)
      "feam_demo_latency_bucket{le=\"10\"} 1";
      "feam_demo_latency_bucket{le=\"100\"} 2";
      "feam_demo_latency_bucket{le=\"+Inf\"} 3";
      "feam_demo_latency_sum 5055";
      "feam_demo_latency_count 3";
    ]

let test_exposition_deterministic () =
  let render () =
    Feam_obs.reset ();
    populate_registry ();
    let prom = Expo.render_prom () in
    let jsonl = Expo.render_jsonl () in
    Feam_obs.reset ();
    (prom, jsonl)
  in
  let p1, j1 = render () in
  let p2, j2 = render () in
  Alcotest.(check string) "prom output byte-identical" p1 p2;
  Alcotest.(check string) "jsonl output byte-identical" j1 j2

let test_jsonl_records () =
  Feam_obs.reset ();
  populate_registry ();
  let out = Expo.render_jsonl () in
  Feam_obs.reset ();
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one record per registry entry" 3 (List.length lines);
  List.iter
    (fun line ->
      match Feam_util.Json.parse line with
      | Error e -> Alcotest.failf "record does not parse: %s (%s)" line e
      | Ok json ->
        Alcotest.(check (option int))
          "fixed clock zeroes ts_ns" (Some 0)
          (Option.bind
             (Feam_util.Json.member "ts_ns" json)
             Feam_util.Json.to_int_opt))
    lines

(* -- Ledger: self-cost attribution over a manual clock --------------------- *)

let find_bucket t cell kind name =
  match
    List.assoc_opt (cell, kind, name)
      (List.map (fun (k, b) -> (k, b)) (Ledger.sorted_entries t))
  with
  | Some b -> b
  | None -> Alcotest.failf "no ledger bucket for %s/%s" cell name

let test_ledger_self_cost () =
  Feam_obs.reset ();
  let clock = Clock.manual () in
  let t = Ledger.create ~clock:(Clock.of_manual clock) () in
  Ledger.install t;
  Ledger.with_cell "bt.A->siteB" (fun () ->
      Ledger.with_stage "outer" (fun () ->
          Clock.advance clock 10L;
          Ledger.with_stage "inner" (fun () -> Clock.advance clock 5L);
          Ledger.with_determinant "isa" (fun () -> Clock.advance clock 4L);
          Clock.advance clock 2L));
  Ledger.uninstall ();
  let outer = find_bucket t "bt.A->siteB" Ledger.Stage "outer" in
  let inner = find_bucket t "bt.A->siteB" Ledger.Stage "inner" in
  let isa = find_bucket t "bt.A->siteB" Ledger.Determinant "isa" in
  Alcotest.(check int64) "outer total includes children" 21L outer.Ledger.total_ns;
  Alcotest.(check int64) "outer self excludes children" 12L outer.Ledger.self_ns;
  Alcotest.(check int64) "inner self" 5L inner.Ledger.self_ns;
  Alcotest.(check int64) "determinant self" 4L isa.Ledger.self_ns;
  Alcotest.(check int) "each ran once" 1 outer.Ledger.calls;
  Alcotest.(check (list string))
    "cell recorded" [ "bt.A->siteB" ] (Ledger.cells t);
  Alcotest.(check (list string))
    "determinant names" [ "isa" ] (Ledger.determinant_names t);
  (* cell cost = sum of self over all entries = 12 + 5 + 4 *)
  let _, cell_ns = Ledger.cell_cost t "bt.A->siteB" in
  Alcotest.(check int64) "cell self-cost sums" 21L cell_ns

let test_ledger_uninstalled_noop () =
  Ledger.uninstall ();
  let r =
    Ledger.with_cell "c" (fun () ->
        Ledger.with_stage "s" (fun () ->
            Ledger.with_determinant "d" (fun () -> 11)))
  in
  Alcotest.(check int) "thunks run straight through" 11 r

let suite =
  ( "costs",
    [
      Alcotest.test_case "prof timer records" `Quick test_prof_records;
      Alcotest.test_case "prof disabled is a no-op" `Quick test_prof_disabled_noop;
      Alcotest.test_case "metrics freeze stops timers" `Quick
        test_prof_metrics_freeze;
      Alcotest.test_case "span alloc attrs" `Quick test_span_alloc_attrs;
      Alcotest.test_case "label escape round-trip" `Quick
        test_label_escape_roundtrip;
      Alcotest.test_case "prom exposition format" `Quick test_prom_format;
      Alcotest.test_case "exposition is deterministic" `Quick
        test_exposition_deterministic;
      Alcotest.test_case "jsonl records" `Quick test_jsonl_records;
      Alcotest.test_case "ledger self-cost" `Quick test_ledger_self_cost;
      Alcotest.test_case "ledger uninstalled no-op" `Quick
        test_ledger_uninstalled_noop;
    ] )
