(* Checks on the benchmark itself: its percentile rule, its seeded
   request script and its output check. *)

open Feam_perfbench

let data name = Filename.concat "../data" name

let pinned () = Pinned.load (data "matrix_verdicts.tsv")

let candidates () =
  Script.parse_candidates
    (In_channel.with_open_bin (data "serve_removals.tsv") In_channel.input_all)

(* -- percentiles -------------------------------------------------------- *)

let test_tail_rule () =
  let check n expected =
    Alcotest.(check (option (float 0.0))) (Printf.sprintf "n=%d" n) expected
      (Stats.tail_percentile n)
  in
  check 0 None;
  check 19 None;
  check 20 (Some 50.0);
  check 39 (Some 50.0);
  check 40 (Some 75.0);
  check 100 (Some 90.0);
  check 199 (Some 90.0);
  check 200 (Some 95.0);
  check 999 (Some 95.0);
  check 1000 (Some 99.0);
  check 9999 (Some 99.0);
  check 10000 (Some 99.9);
  (* At least ten samples lie strictly above the reported rank. *)
  List.iter
    (fun n ->
      match Stats.tail_percentile n with
      | None -> Alcotest.(check bool) "too few" true (n < 20)
      | Some p ->
        let sorted = Array.init n float_of_int in
        let v = Stats.quantile sorted p in
        let beyond = Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 sorted in
        Alcotest.(check bool) (Printf.sprintf "n=%d p=%g beyond=%d" n p beyond) true
          (beyond >= 10))
    [ 20; 21; 57; 100; 137; 200; 999; 1000; 4321; 10000 ]

let test_quantile () =
  let a = [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |] in
  Alcotest.(check (float 0.0)) "p50" 5.0 (Stats.median a);
  Alcotest.(check (float 0.0)) "p90" 9.0 (Stats.quantile a 90.0);
  Alcotest.(check (float 0.0)) "p100" 10.0 (Stats.quantile a 100.0);
  let r = Stats.recorder 3 in
  List.iter (Stats.record r) [ 3.; 1.; 2. ];
  Alcotest.(check (array (float 0.0))) "sorted" [| 1.; 2.; 3. |] (Stats.sorted r);
  Alcotest.check_raises "full" (Invalid_argument "Stats.record: recorder is full")
    (fun () -> Stats.record r 4.)

(* -- serve script ------------------------------------------------------- *)

let script seed =
  let cells = List.map (fun r -> (r.Pinned.binary, r.Pinned.target)) (pinned ()) in
  Script.generate ~seed ~seconds:10 ~cells ~candidates:(candidates ())

let test_script_deterministic () =
  let text seed = String.concat "\n" (script seed) in
  Alcotest.(check string) "same seed, same bytes" (text 17) (text 17);
  Alcotest.(check bool) "another seed, another script" false (text 17 = text 18)

let test_script_shape () =
  let lines = script 5 in
  let requests =
    List.map
      (fun l ->
        match Feam_serve.Protocol.parse l with
        | Ok r -> r
        | Error e -> Alcotest.failf "invalid request %s: %s" l (Feam_serve.Protocol.error_code e))
      lines
  in
  Alcotest.(check bool) "ends with crosscheck" true
    (List.nth requests (List.length requests - 1) = Feam_serve.Protocol.Crosscheck);
  let writes =
    List.filter_map
      (function
        | Feam_serve.Protocol.Update_evidence { ue_site; ue_action } -> Some (ue_site, ue_action)
        | _ -> None)
      requests
  in
  let p = Script.params_for ~seconds:10 in
  Alcotest.(check int) "write count" p.Script.writes (List.length writes);
  let per_site = List.map (fun (s, _) -> List.length (List.filter (fun (x, _) -> x = s) writes)) writes in
  Alcotest.(check bool) "sites written evenly" true
    (List.fold_left max 0 per_site - List.fold_left min max_int per_site <= 1);
  let removals =
    List.length
      (List.filter (fun (_, a) -> match a with Feam_serve.Protocol.Remove_lib _ -> true | _ -> false) writes)
  in
  Alcotest.(check int) "bounded removals" p.Script.removals removals;
  (* The reads-per-write ratio is sized so a traced serve run's half of
     the default 25 s still reports a p99. *)
  let cells = List.map (fun r -> (r.Pinned.binary, r.Pinned.target)) (pinned ()) in
  let predicts =
    Script.generate ~seed:5 ~seconds:12 ~cells ~candidates:(candidates ())
    |> List.filter (fun l ->
           match Feam_serve.Protocol.parse l with
           | Ok (Feam_serve.Protocol.Predict _) -> true
           | _ -> false)
  in
  Alcotest.(check bool) "a 12 s script reports a p99" true
    (match Stats.tail_percentile (List.length predicts) with
     | Some p -> p >= 99.0
     | None -> false)

(* -- output check ------------------------------------------------------- *)

let test_tampered_table () =
  let pinned = pinned () in
  let world = Matrix_wl.build_world () in
  let pass = Matrix_wl.run_pass ~seed:1 ~pinned ~index:0 world in
  Alcotest.(check int) "pinned table holds" 0 pass.Matrix_wl.failed;
  let tampered =
    match pinned with
    | r :: rest -> { r with Pinned.extended = not r.Pinned.extended } :: rest
    | [] -> Alcotest.fail "empty pinned table"
  in
  let failed = Pinned.failures ~pinned:tampered pass.Matrix_wl.rows in
  let share = Run.share failed (List.length pinned) in
  Alcotest.(check bool) "tampered table fails a cell" true (share > 0.0);
  Alcotest.(check int) "dropped cell fails" 1
    (Pinned.failures ~pinned (List.tl pass.Matrix_wl.rows))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [ Alcotest.test_case "tail percentile keeps ten samples beyond" `Quick test_tail_rule;
          Alcotest.test_case "nearest-rank quantiles and recorder" `Quick test_quantile ] );
      ( "script",
        [ Alcotest.test_case "same seed gives a byte-identical script" `Quick
            test_script_deterministic;
          Alcotest.test_case "script is valid, balanced and bounded" `Quick test_script_shape ] );
      ( "check",
        [ Alcotest.test_case "tampered pinned table makes failed_share > 0" `Slow
            test_tampered_table ] );
    ]
