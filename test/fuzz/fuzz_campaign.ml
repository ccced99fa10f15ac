(* The fuzz campaign: Test_fuzz's ELF, .dynsym, parse-memo and
   record-decoder properties in QCheck's long mode, from one seed printed
   before anything runs.  Exits non-zero when a property fails; replay
   with QCHECK_SEED=<seed> dune build @fuzz. *)

let () =
  let seed = Qseed.seed () in
  exit
    (QCheck_base_runner.run_tests ~long:true
       ~rand:(Random.State.make [| seed |])
       Test_fuzz.campaign)
