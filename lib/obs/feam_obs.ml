(* Feam_obs — structured tracing, metrics and profiling for the FEAM
   pipeline.

   Where `feam lint` (lib/analysis) says what is *wrong* with a bundle,
   this layer says what FEAM *did* and how long it took, mirroring the
   paper's §VI cost evaluation: hierarchical spans over every BDC /
   EDC / prediction / resolution step, a counters-gauges-histograms
   registry, and pluggable exporters (human-readable, JSONL, Chrome
   trace_event).  Everything is a no-op until [configure] selects a
   sink, so the instrumented pipeline stays deterministic by default. *)

module Clock = Clock
module Span = Span
module Sink = Sink
module Trace = Trace
module Metrics = Metrics
module Prof = Prof
module Expo = Expo
module Cachestat = Cachestat
module Ledger = Ledger

type trace_format = Pretty | Jsonl | Chrome

let format_of_string = function
  | "pretty" -> Ok Pretty
  | "jsonl" -> Ok Jsonl
  | "chrome" -> Ok Chrome
  | other -> Error (Printf.sprintf "unknown trace format %S (use pretty, jsonl, or chrome)" other)

let format_to_string = function
  | Pretty -> "pretty"
  | Jsonl -> "jsonl"
  | Chrome -> "chrome"

let sink_of_format ~emit = function
  | Pretty -> Sink.pretty ~emit ()
  | Jsonl -> Sink.jsonl ~emit ()
  | Chrome -> Sink.chrome ~emit ()

(* [configure ?clock ?emit ?out format] turns tracing on: spans flow to
   a sink of the given format, which hands its rendered output to [emit]
   at {!flush}.  Without [emit] the output goes to the file [out]; when
   [out] is absent or "-", [Pretty] goes to stderr and the machine
   formats to stdout. *)
let configure ?clock ?emit ?out format =
  let emit =
    match (emit, out) with
    | Some emit, _ -> emit
    | None, Some file when file <> "-" ->
      fun text ->
        Out_channel.with_open_text file (fun oc ->
            Out_channel.output_string oc text)
    | None, _ -> (
      match format with
      | Pretty -> prerr_string
      | Jsonl | Chrome -> print_string)
  in
  Trace.configure ?clock (sink_of_format ~emit format)

(* Flush hooks: other sinks that buffer output (the flight recorder's
   journal, for one) register here, keyed so re-registration replaces
   rather than duplicates.  [flush] then drains *every* buffered
   output in one idempotent call — the single helper every CLI exit
   path is expected to use before [exit]. *)
let hooks : (string * (unit -> unit)) list ref = ref []

let on_flush ~key f = hooks := (key, f) :: List.remove_assoc key !hooks

let remove_flush_hook key = hooks := List.remove_assoc key !hooks

let flush () =
  Trace.flush ();
  List.iter (fun (_, f) -> f ()) !hooks

(* Back to the pristine no-op state (tests). *)
let reset () =
  Trace.disable ();
  Trace.set_record_alloc false;
  Metrics.reset ();
  Prof.reset ();
  Ledger.uninstall ();
  hooks := []

(* Simulated seconds, bucketed against the paper's five-minute phase
   budget (§VI.C). *)
let sim_seconds_bounds = [| 0.1; 1.0; 5.0; 15.0; 60.0; 300.0 |]

(* Run [f] under a span named [name], attributing the simulated seconds
   it charges to [sim] both as a span attribute and as a sample of the
   [metric]{phase=[phase]} histogram — the shared shape of every
   evaluation-harness phase timer. *)
let with_sim_phase ~name ~metric ~phase sim f =
  Trace.with_span name @@ fun () ->
  let before = Feam_util.Sim_clock.elapsed sim in
  let result = f () in
  let spent = Feam_util.Sim_clock.elapsed sim -. before in
  Trace.set_attr "sim_s" (Span.Float spent);
  Metrics.observe
    ~labels:[ ("phase", phase) ]
    ~bounds:sim_seconds_bounds metric spent;
  result
