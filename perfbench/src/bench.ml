(* One run of one workload: set up (several times, for a steady set-up
   time), run whole rounds for the run length, check every output, and
   print the result as one JSON object on the last line of stdout. *)

module Json = Flexcl_util.Json

type workload = {
  name : string;
  min_rounds : int;
  setup : seed:int -> Harness.instance;
}

let workloads =
  [
    { name = "predict-cold"; min_rounds = Predict_cold.min_rounds;
      setup = Predict_cold.setup };
    { name = "serve-hot"; min_rounds = Serve_hot.min_rounds;
      setup = Serve_hot.setup };
    { name = "dse-sweep"; min_rounds = Dse_sweep.min_rounds;
      setup = Dse_sweep.setup };
    { name = "validate"; min_rounds = Validate.min_rounds;
      setup = Validate.setup };
  ]

let setup_reps = 3

let metric value unit = Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ]

(* The percentile [latency_tail_ms] reports: fixed per workload, from
   the fewest samples a run can have, so it is the same on every run. *)
let tail_permille ~round_size ~min_rounds =
  match Stats.tail_permille (round_size * min_rounds) with
  | Some pm -> pm
  | None -> invalid_arg "Bench: a workload must time at least 40 operations per run"

(* The end-to-end metrics, with every time taken by [pick]: scaled to
   the reference host speed (what the result reports) or as measured. *)
let end_to_end ~(setup : Harness.timing) (o : Harness.outcome) ~tail_pm pick =
  let sorted = Array.map pick o.Harness.latencies_ns in
  Array.sort compare sorted;
  let ms pm = Stats.percentile sorted ~permille:pm /. 1e6 in
  let kb_per_op =
    o.Harness.alloc_words *. Stats.bytes_per_word /. 1024.0
    /. float_of_int (Array.length sorted)
  in
  [
    ("setup_s", metric (pick setup) "s");
    (* the median round: a round a major collection or a stall of the
       host lands in does not move it *)
    ("ops_per_s", metric (Stats.median (List.map pick o.Harness.round_rates)) "1/s");
    ("latency_p50_ms", metric (ms 500) "ms");
    ("latency_tail_ms", metric (ms tail_pm) "ms");
    ("peak_rss_mb", metric o.Harness.rss_mb "MB");
    ("alloc_kb_per_op", metric kb_per_op "KB");
  ]

let per_layer () =
  List.filter_map
    (fun (name, unit, _, value) ->
      match value () with
      | Some v -> Some (name, metric v unit)
      | None ->
          Printf.eprintf "perfbench: no spans for %s\n" name;
          None)
    Layers.per_layer

(* Spans go under the build directory, which the checkout ignores. *)
let write_spans ~workload ~seed =
  let dir = Filename.concat "_build" "perfbench" in
  let path = Filename.concat dir (Printf.sprintf "spans-%s-%d.jsonl" workload seed) in
  try
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Span.write_jsonl path;
    Printf.eprintf "spans written to %s\n" path
  with Sys_error e -> Printf.eprintf "perfbench: spans not written: %s\n" e

let run ~workload ~seed ~seconds ~trace =
  let wl =
    match List.find_opt (fun w -> w.name = workload) workloads with
    | Some w -> w
    | None -> invalid_arg ("unknown workload " ^ workload)
  in
  Span.reset ();
  Span.enabled := trace;
  let setup, inst =
    Harness.setup ~reps:(if trace then 1 else setup_reps) (fun () -> wl.setup ~seed)
  in
  let min_rounds = if trace then 1 else wl.min_rounds in
  let tail_pm = tail_permille ~round_size:inst.Harness.round_size ~min_rounds:wl.min_rounds in
  if trace then inst.Harness.complement ();
  let g0 = Gc.quick_stat () in
  let o = Harness.run ~seconds ~min_rounds inst.Harness.round in
  let g1 = Gc.quick_stat () in
  let n_ops = float_of_int (Array.length o.Harness.latencies_ns) in
  Span.count "gc.minor_mb"
    ((g1.Gc.minor_words -. g0.Gc.minor_words) *. Stats.bytes_per_word /. 1e6 /. n_ops);
  Span.count "gc.major_collections"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) /. n_ops);
  inst.Harness.report ();
  Printf.eprintf
    "%s: seed %d, set-up %.3f s, %d rounds, %d operations (%d failed), %.1f s checking, tail percentile %s, host at %.2f of reference speed\n%!"
    workload seed setup.Harness.wall o.Harness.rounds o.Harness.attempted o.Harness.failed
    o.Harness.check_s (Stats.permille_label tail_pm) o.Harness.host_speed;
  let e2e = end_to_end ~setup o ~tail_pm (fun t -> t.Harness.scaled) in
  Printf.eprintf "as measured: %s\n%!"
    (Json.to_string (Json.Obj (end_to_end ~setup o ~tail_pm (fun t -> t.Harness.wall))));
  let metrics =
    if trace then begin
      write_spans ~workload ~seed;
      (* set against an untraced run, the tracing overhead *)
      Printf.eprintf "traced end-to-end: %s\n%!" (Json.to_string (Json.Obj e2e));
      per_layer ()
    end
    else e2e
  in
  Json.Obj
    [
      ("correct", Json.Bool true);
      ("attempted", Json.int o.Harness.attempted);
      ("failed", Json.int o.Harness.failed);
      ("metrics", Json.Obj metrics);
    ]
