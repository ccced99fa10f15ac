(* The serve-mixed request script, generated from the seed alone.

   One closed-loop client sends blocks of reads separated by single
   writes.  Reads are mostly [predict] over seeded (binary, target)
   cells of the resident matrix, with an occasional [predict-batch].
   Writes visit the five sites in seeded rounds, so every site is
   written equally often whatever the seed: each visit toggles that
   site's ld cache stale or fresh again, revisiting earlier states, and
   a bounded number of visits instead remove a seeded library,
   creating a state the engine has not seen.  The script ends with
   [crosscheck].

   The mix is synthetic and assumed: no trace of real serve traffic
   exists to copy.  Its numbers come from what the metrics need:
   - [reads_per_write]: the predict p99 needs 1000 predicts (ten beyond
     it).  The shortest script the benchmark sends, a traced run's half
     of 25 s, has 14 writes and so 15 read blocks; 200 reads per write
     gives it about 2850 predicts, 28 beyond the p99.  Reads then take
     under 1% of the loop (a few microseconds each against about half a
     second per write), so the serve-mixed requests per second are
     write cost scaled by this ratio.
   - [batch_share], [batch_min], [batch_max]: enough predict-batch
     requests (about 10 per block) to keep that verb on the measured
     path, small enough to leave the predict count above.
   - [removals]: a removal is never undone within a script, so each one
     moves every later write's state further from the paper's fleet;
     at most 3 keep most writes on the revisited toggle states. *)

module Json = Feam_util.Json
module Prng = Feam_util.Prng

type params = {
  writes : int;
  reads_per_write : int;
  batch_share : float;  (** share of reads sent as predict-batch *)
  batch_min : int;
  batch_max : int;
  removals : int;  (** remove-lib visits, at most *)
}

(* About 0.7 s per write on the Table II fleet: [seconds] sizes the
   script so the writes fill roughly that long. *)
let params_for ~seconds =
  let writes = max 5 (seconds * 6 / 5) in
  { writes; reads_per_write = 200; batch_share = 0.05; batch_min = 4;
    batch_max = 16; removals = min 3 (writes / 8) }

let line fields = Json.render (Json.Obj fields)

let query (binary, target) = [ ("binary", Json.Str binary); ("target", Json.Str target) ]

let predict cell = line (("verb", Json.Str "predict") :: query cell)

let predict_batch cells =
  line
    [ ("verb", Json.Str "predict-batch");
      ("queries", Json.List (List.map (fun c -> Json.Obj (query c)) cells)) ]

let update site action extra =
  line
    ([ ("verb", Json.Str "update-evidence"); ("site", Json.Str site);
       ("action", Json.Str action) ] @ extra)

let crosscheck = line [ ("verb", Json.Str "crosscheck") ]

(* Fisher-Yates over a copy, drawing from [rng]. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* [cells]: the resident matrix's (binary, target) pairs; [candidates]:
   per site, the library basenames a removal may draw. *)
let generate ~seed ~seconds ~cells ~candidates =
  let p = params_for ~seconds in
  let rng = Prng.of_key ~seed "perfbench/serve-script" in
  let cells = Array.of_list cells in
  let sites = List.map fst candidates in
  let pick_cell () = cells.(Prng.int rng (Array.length cells)) in
  let reads () =
    List.init p.reads_per_write (fun _ ->
        if Prng.float rng < p.batch_share then
          let k = p.batch_min + Prng.int rng (p.batch_max - p.batch_min + 1) in
          predict_batch (List.init k (fun _ -> pick_cell ()))
        else predict (pick_cell ()))
  in
  (* Site order: whole seeded rounds, so per-site write counts differ by
     at most one. *)
  let rounds = (p.writes + List.length sites - 1) / List.length sites in
  let order =
    List.concat (List.init rounds (fun _ -> shuffle rng sites)) |> take p.writes
  in
  let removal_at =
    take p.removals (shuffle rng (List.init p.writes Fun.id))
  in
  let stale = Hashtbl.create 8 in
  let removed = Hashtbl.create 8 in
  let write i site =
    if List.mem i removal_at then begin
      let taken = Hashtbl.find_all removed site in
      let menu =
        List.filter (fun l -> not (List.mem l taken)) (List.assoc site candidates)
      in
      let lib = Prng.pick rng menu in
      Hashtbl.add removed site lib;
      update site "remove-lib" [ ("lib", Json.Str lib) ]
    end
    else begin
      let now_stale = not (Hashtbl.mem stale site) in
      if now_stale then Hashtbl.replace stale site () else Hashtbl.remove stale site;
      update site (if now_stale then "stale-ld-cache" else "fresh-ld-cache") []
    end
  in
  List.concat (List.mapi (fun i site -> reads () @ [ write i site ]) order)
  @ reads () @ [ crosscheck ]

(* The removal menu file: "site<TAB>library" per line. *)
let parse_candidates text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "")
  |> List.fold_left
       (fun acc l ->
         match String.split_on_char '\t' l with
         | [ site; lib ] ->
           let libs = Option.value (List.assoc_opt site acc) ~default:[] in
           (site, libs @ [ lib ]) :: List.remove_assoc site acc
         | _ -> failwith ("removal menu: malformed line: " ^ l))
       []
  |> List.sort compare
