(* Per-layer replays for the traced run: the benchmark calls each
   layer's public function itself, on a workload's own inputs, inside a
   span. *)

open Common
module Parser = Flexcl_opencl.Parser
module Sema = Flexcl_opencl.Sema
module Lower = Flexcl_ir.Lower
module Depend = Flexcl_ir.Depend
module Interp = Flexcl_interp.Interp
module Model = Flexcl_core.Model
module Space = Flexcl_dse.Space
module Explore = Flexcl_dse.Explore
module Heuristic = Flexcl_dse.Heuristic
module Sysrun = Flexcl_simrtl.Sysrun
module Graph = Flexcl_graph.Graph
module Cosim = Flexcl_graph.Cosim
module Server = Flexcl_server.Server
module Hash = Flexcl_util.Hash

let accesses (p : Interp.profile) =
  float_of_int
    (Array.fold_left (fun s t -> s + List.length t) 0 p.Interp.wi_traces)

let space_of (w : W.t) =
  Space.default ~total_work_items:(Launch.n_work_items w.W.launch)

(* Points of the default space at the launch's own work-group size. *)
let points_at_launch dev (a : Analysis.t) (w : W.t) =
  let wg = Launch.wg_size w.W.launch in
  List.filter
    (fun (c : Config.t) -> c.Config.wg_size = wg)
    (Space.feasible_points dev a (space_of w))

(* The pipeline of one cold predict, one layer at a time: codec and key
   material, frontend, lowering, profiling, dependence analysis, then the
   model on a fresh analysis (pattern counts, staging, the first
   estimate, staged evaluation, the first explain). *)
let kernel_layers (w : W.t) (dev : Device.t) (cfg : Config.t) =
  let line =
    Span.time "util.json_encode_us" (fun () -> predict_line ~id:0 w dev cfg)
  in
  ignore (Span.time "util.json_decode_us" (fun () -> Json.of_string line));
  ignore (Span.time "util.hash_us" (fun () -> Hash.string w.W.source));
  let k = Span.time "opencl.parse_us" (fun () -> Parser.parse_kernel w.W.source) in
  let info = Span.time "opencl.sema_us" (fun () -> Sema.analyze k) in
  let launch = w.W.launch in
  let cdfg = Span.time "ir.lower_us" (fun () -> Lower.lower k info launch) in
  ignore (Span.time "ir.fingerprint_us" (fun () -> Launch.fingerprint launch));
  ignore
    (Span.time "interp.profile_ms" ~work:accesses (fun () ->
         Interp.run k info launch));
  ignore
    (Span.time "ir.depend_us" (fun () ->
         ( Depend.work_item_recurrences cdfg launch,
           Depend.loop_recurrences cdfg launch )));
  let a = Span.time "core.analyze_ms" (fun () -> Analysis.analyze k launch) in
  Span.time "dram.pattern_counts_ms" (fun () ->
      if dev.Device.dram.Flexcl_dram.Dram.n_channels > 1 then
        ignore (Model.mean_pattern_counts_by_channel a dev)
      else ignore (Model.mean_pattern_counts a dev));
  let sp = Span.time "core.specialize_ms" (fun () -> Model.specialize dev a) in
  ignore (Span.time "core.estimate_cold_us" (fun () -> Model.estimate dev a cfg));
  let pts = points_at_launch dev a w in
  Span.time "core.staged_eval_us"
    ~work:(fun () -> float_of_int (List.length pts))
    (fun () -> List.iter (fun p -> ignore (Model.specialized_cycles sp p)) pts);
  ignore (Span.time "core.explain_us" (fun () -> Model.explain dev a cfg))

(* Sweeps run on the calling domain ([num_domains = 0]), as serve's
   [explore] runs them: on a 2-core host the default (one worker domain)
   was 3 to 4 times slower per warm sweep, and its times swung up to 3x
   between runs as host contention stalled the domain handoffs. *)
let sweep dev a space =
  Span.time "dse.sweep_ms"
    ~work:(fun r -> float_of_int (List.length r))
    (fun () ->
      Explore.exhaustive ~num_domains:0 dev a space
        (Explore.specialized_model_oracle dev))

let heuristic dev a space =
  Span.time "dse.heuristic_ms" (fun () ->
      Flexcl_dse.Heuristic.search_result ~num_domains:0 dev a space
        (Explore.specialized_model_oracle dev))

let graph_explore dev g =
  Span.time "graph.explore_ms" (fun () ->
      Graph.explore ~num_domains:0 dev g Graph.default_jspace)

let simrtl ?seed dev a cfg =
  Span.time "simrtl.run_ms"
    ~work:(fun r -> float_of_int r.Sysrun.mem_transactions)
    (fun () -> Sysrun.run ?seed dev a cfg)

let run_all (a : Analysis.t) =
  ignore
    (Span.time "interp.run_all_ms" (fun () ->
         Interp.run_all a.Analysis.kernel a.Analysis.sema a.Analysis.launch))

(* Share of predict-cache lookups that hit, over some stretch of
   requests. *)
let hit_ratio ~hits ~misses =
  if hits + misses > 0 then
    Span.count "server.hit_ratio" (float_of_int hits /. float_of_int (hits + misses))

(* Every layer once, on one kernel and one graph of the workload: the
   stand-in for layers the workload's own operations never call. *)
let complement (w : W.t) dev cfg (p : Pipelines.t) gdev =
  Span.in_complement (fun () ->
      kernel_layers w dev cfg;
      let a = Analysis.analyze (W.parse w) w.W.launch in
      run_all a;
      let space = space_of w in
      ignore (sweep dev a space);
      ignore (heuristic dev a space);
      ignore (simrtl dev a cfg);
      let g = analyze_graph p in
      ignore (graph_explore gdev g);
      ignore
        (Span.time "graph.cosim_ms" (fun () ->
             Cosim.run gdev g (Graph.default_joint g)));
      let srv = Server.create ~num_domains:0 () in
      let line = predict_line ~id:0 w dev cfg in
      ignore (Span.time "server.miss_ms" (fun () -> Server.handle_line srv line));
      ignore (Span.time "server.hit_us" (fun () -> Server.handle_line srv line));
      match Checks.cache_counts (Server.stats_json srv) "predict" with
      | Some { Checks.hits; misses } -> hit_ratio ~hits ~misses
      | None -> ())

(* name, unit, better, value from the recorded spans *)
let per_layer =
  let us n = Option.map (fun v -> v /. 1e3) (Span.mean_ns n) in
  let ms n = Option.map (fun v -> v /. 1e6) (Span.mean_ns n) in
  [
    ("opencl.parse_us", "us", "lower", fun () -> us "opencl.parse_us");
    ("opencl.sema_us", "us", "lower", fun () -> us "opencl.sema_us");
    ("ir.lower_us", "us", "lower", fun () -> us "ir.lower_us");
    ("ir.depend_us", "us", "lower", fun () -> us "ir.depend_us");
    ("ir.fingerprint_us", "us", "lower", fun () -> us "ir.fingerprint_us");
    ("interp.profile_ms", "ms", "lower", fun () -> ms "interp.profile_ms");
    ("interp.run_all_ms", "ms", "lower", fun () -> ms "interp.run_all_ms");
    ("interp.accesses", "count", "lower", fun () -> Span.mean_units "interp.profile_ms");
    ("interp.ns_per_access", "ns", "lower", fun () -> Span.ns_per_unit "interp.profile_ms");
    ("core.analyze_ms", "ms", "lower", fun () -> ms "core.analyze_ms");
    ("core.estimate_cold_us", "us", "lower", fun () -> us "core.estimate_cold_us");
    ("core.specialize_ms", "ms", "lower", fun () -> ms "core.specialize_ms");
    ( "core.staged_eval_us", "us", "lower",
      fun () -> Option.map (fun v -> v /. 1e3) (Span.ns_per_unit "core.staged_eval_us") );
    ("core.explain_us", "us", "lower", fun () -> us "core.explain_us");
    ("dram.pattern_counts_ms", "ms", "lower", fun () -> ms "dram.pattern_counts_ms");
    ("dse.sweep_ms", "ms", "lower", fun () -> ms "dse.sweep_ms");
    ("dse.points", "count", "lower", fun () -> Span.mean_units "dse.sweep_ms");
    ( "dse.us_per_point", "us", "lower",
      fun () -> Option.map (fun v -> v /. 1e3) (Span.ns_per_unit "dse.sweep_ms") );
    ("dse.heuristic_ms", "ms", "lower", fun () -> ms "dse.heuristic_ms");
    ("graph.analyze_ms", "ms", "lower", fun () -> ms "graph.analyze_ms");
    ("graph.explore_ms", "ms", "lower", fun () -> ms "graph.explore_ms");
    ("graph.cosim_ms", "ms", "lower", fun () -> ms "graph.cosim_ms");
    ("simrtl.run_ms", "ms", "lower", fun () -> ms "simrtl.run_ms");
    ("simrtl.mem_transactions", "count", "lower", fun () -> Span.mean_units "simrtl.run_ms");
    ("simrtl.ns_per_txn", "ns", "lower", fun () -> Span.ns_per_unit "simrtl.run_ms");
    ("server.hit_us", "us", "lower", fun () -> us "server.hit_us");
    ("server.miss_ms", "ms", "lower", fun () -> ms "server.miss_ms");
    ("server.hit_ratio", "ratio", "higher", fun () -> Span.mean_units "server.hit_ratio");
    ("util.json_decode_us", "us", "lower", fun () -> us "util.json_decode_us");
    ("util.json_encode_us", "us", "lower", fun () -> us "util.json_encode_us");
    ("util.hash_us", "us", "lower", fun () -> us "util.hash_us");
    ("gc.minor_mb", "MB", "lower", fun () -> Span.mean_units "gc.minor_mb");
    ("gc.major_collections", "count", "lower", fun () -> Span.mean_units "gc.major_collections");
  ]
