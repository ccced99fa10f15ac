(* QCheck properties as Alcotest cases whose failures name the run's
   random seed.  One seed per run: QCHECK_SEED when set (to replay a
   failure), fresh otherwise, printed once up front; every property
   draws from it, so a failure reproduces from its log alone.  Test
   counts stay as each property declares them. *)

let seed =
  let s =
    lazy
      (let s =
         match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
         | Some s -> s
         | None ->
           Random.self_init ();
           Random.int 1_000_000_000
       in
       Printf.printf "qcheck random seed: %d\n%!" s;
       s)
  in
  fun () -> Lazy.force s

let to_alcotest ?long test =
  let seed = seed () in
  let name, speed, run =
    QCheck_alcotest.to_alcotest ?long
      ~rand:(Random.State.make [| seed |])
      test
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with e ->
        failwith
          (Printf.sprintf "%s\nqcheck seed %d: rerun with QCHECK_SEED=%d"
             (Printexc.to_string e) seed seed) )
