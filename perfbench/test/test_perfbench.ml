(* The benchmark's own tests: its statistics on fixed inputs, its
   allocation accounting, and that every output check fails when fed a
   perturbed reference. *)

open Perfbench
module W = Flexcl_workloads.Workload
module Device = Flexcl_device.Device
module Model = Flexcl_core.Model
module Analysis = Flexcl_core.Analysis
module Explore = Flexcl_dse.Explore
module Sysrun = Flexcl_simrtl.Sysrun
module Graph = Flexcl_graph.Graph
module Cosim = Flexcl_graph.Cosim
module Interp = Flexcl_interp.Interp
module Server = Flexcl_server.Server

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Statistics *)

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_percentile () =
  let sorted = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let p pm = Stats.percentile sorted ~permille:pm in
  Alcotest.(check (float 0.0)) "p50" 50.0 (p 500);
  Alcotest.(check (float 0.0)) "p90" 90.0 (p 900);
  Alcotest.(check (float 0.0)) "p99" 99.0 (p 990);
  Alcotest.(check (float 0.0)) "p99.9" 100.0 (p 999);
  Alcotest.(check int) "10 beyond p90 of 100" 10 (Stats.beyond ~permille:900 100)

let test_tail () =
  let tail = Alcotest.(check (option int)) in
  tail "39 samples: median only" None (Stats.tail_permille 39);
  tail "40 samples: p75" (Some 750) (Stats.tail_permille 40);
  tail "124 samples: p90" (Some 900) (Stats.tail_permille 124);
  tail "240 samples: p95" (Some 950) (Stats.tail_permille 240);
  tail "999 samples: p95" (Some 950) (Stats.tail_permille 999);
  tail "1000 samples: p99" (Some 990) (Stats.tail_permille 1000);
  tail "100000 samples: p99" (Some 990) (Stats.tail_permille 100_000);
  Alcotest.(check string) "label" "p99.9" (Stats.permille_label 999)

(* A cons cell is three words: header and two fields. *)
let burn n =
  let r = ref [] in
  for i = 1 to n do
    r := [ i ];
    ignore (Sys.opaque_identity !r)
  done

let test_alloc_domains () =
  let n = 200_000 in
  let w0 = Stats.allocated_words () in
  burn n;
  let w1 = Stats.allocated_words () in
  let d = Domain.spawn (fun () -> burn n) in
  Domain.join d;
  let w2 = Stats.allocated_words () in
  let near what expected got =
    check_bool
      (Printf.sprintf "%s: %.0f words for %.0f" what got expected)
      true
      (got >= expected && got < expected +. 2000.0)
  in
  near "this domain" (float_of_int (3 * n)) (w1 -. w0);
  near "a worker domain" (float_of_int (3 * n)) (w2 -. w1)

(* ------------------------------------------------------------------ *)
(* The run loop *)

let test_harness_failures () =
  let ok () () = true and bad () () = false and raises () = failwith "boom" in
  let o =
    Harness.run ~seconds:0.0 ~min_rounds:2 (fun r ->
        { Harness.ops = [| ok; bad; raises |]; after = (fun () -> r = 0) })
  in
  Alcotest.(check int) "rounds" 2 o.Harness.rounds;
  Alcotest.(check int) "attempted" 6 o.Harness.attempted;
  (* round 0: the failing and the raising op; round 1: a failed round
     check fails all three *)
  Alcotest.(check int) "failed" 5 o.Harness.failed;
  Alcotest.(check int) "latencies" 6 (Array.length o.Harness.latencies_ns);
  Alcotest.(check int) "round rates" 2 (List.length o.Harness.round_rates);
  List.iter
    (fun (r : Harness.timing) ->
      Alcotest.(check bool) "rates positive" true (r.Harness.scaled > 0.0 && r.Harness.wall > 0.0))
    o.Harness.round_rates;
  Alcotest.(check bool) "rss read" true (o.Harness.rss_mb > 0.0)

(* The probe's tree holds each distinct key once, however often it is
   rebuilt round the node ring; times scale inversely to the probe. *)
let test_host () =
  let distinct = Hashtbl.create 1024 and x = ref 7 in
  for _ = 1 to Host.n_keys do
    x := ((!x * 1103515245) + 12345) land 0xffffff;
    Hashtbl.replace distinct !x ()
  done;
  let expected = Hashtbl.fold (fun k () acc -> k + acc) distinct 0 in
  for _ = 1 to 50 do
    Alcotest.(check int) "key sum" expected (Host.build ())
  done;
  Alcotest.(check (float 1e-9)) "half speed" 50.0
    (Host.scale ~probe:(2.0 *. Host.reference_ns) 100.0);
  let a = [| 5.0; 1.0; 9.0; 3.0; 7.0 |] in
  (* probes k-1 .. k+2, cut at the ends *)
  Alcotest.(check (float 0.0)) "first probe" 5.0 (Harness.window_median a 0 2);
  Alcotest.(check (float 0.0)) "second probe" 4.0 (Harness.window_median a 1 2);
  Alcotest.(check (float 0.0)) "last probe" 5.0 (Harness.window_median a 4 2)

(* ------------------------------------------------------------------ *)
(* Checks, each fed its true reference and a perturbed one *)

let perturb_expectation = function
  | Checks.Cells (b, (i, v) :: rest) -> Checks.Cells (b, (i, v +. 1e-6) :: rest)
  | Checks.Cells (b, []) -> Checks.Cells (b, [ (0, nan) ])
  | Checks.Total (b, t) -> Checks.Total (b, t +. 1.0)

let test_interp () =
  List.iter
    (fun name ->
      let w = Common.find_kernel name in
      let expect = Option.get (Checks.closed_form ~pick:77 w) in
      let k = W.parse w in
      let p = Interp.run_all k (Flexcl_opencl.Sema.analyze k) w.W.launch in
      check_bool (name ^ " matches") true (Checks.buffers_match expect p.Interp.buffers);
      check_bool (name ^ " perturbed") false
        (Checks.buffers_match (List.map perturb_expectation expect) p.Interp.buffers))
    Checks.closed_form_kernels

let hotspot = Common.find_kernel "hotspot/hotspot"
let hotspot_a = lazy (Common.analyze hotspot)

let test_prediction () =
  let a = Lazy.force hotspot_a and dev = Device.ku060_2ddr in
  let cfg = Common.config ~pe:2 ~cu:2 hotspot in
  let c = Model.cycles dev a cfg and lb = Model.lower_bound dev a cfg in
  check_bool "estimate above its bound" true (Checks.prediction_ok ~lower_bound:lb c);
  check_bool "perturbed bound" false (Checks.prediction_ok ~lower_bound:(c *. 1.01) c);
  check_bool "not finite" false (Checks.prediction_ok ~lower_bound:lb nan);
  check_bool "zero" false (Checks.prediction_ok ~lower_bound:0.0 0.0)

let test_server () =
  let srv = Server.create ~num_domains:0 () in
  let line = Common.predict_line ~id:1 hotspot Device.u280 (Common.config hotspot) in
  let counts () = Option.get (Checks.cache_counts (Server.stats_json srv) "predict") in
  let c0 = counts () in
  let cold = Server.handle_line srv line in
  let c1 = counts () in
  check_bool "one miss" true (Checks.cache_delta_is ~before:c0 ~after:c1 ~hits:0 ~misses:1);
  check_bool "perturbed count" false
    (Checks.cache_delta_is ~before:c0 ~after:c1 ~hits:0 ~misses:2);
  let hot = Server.handle_line srv line in
  let c2 = counts () in
  check_bool "one hit" true (Checks.cache_delta_is ~before:c1 ~after:c2 ~hits:1 ~misses:0);
  let cold_result =
    Flexcl_util.Json.to_string (Option.get (Common.parse_response cold)).Common.result
  in
  check_bool "hit identical" true (Checks.hit_ok ~cold:cold_result hot);
  check_bool "perturbed cold answer" false (Checks.hit_ok ~cold:(cold_result ^ " ") hot);
  check_bool "a miss is no hit" false (Checks.hit_ok ~cold:cold_result cold)

let test_sweep () =
  let a = Lazy.force hotspot_a and dev = Device.virtex7 in
  let space = Layers.space_of hotspot in
  let oracle = Explore.specialized_model_oracle dev in
  let r = Explore.exhaustive ~num_domains:0 dev a space oracle in
  let cycles = List.map (fun (e : Explore.evaluated) -> e.Explore.cycles) r in
  let reference_min = Dse_sweep.reference_min { Dse_sweep.w = hotspot; dev; a; space } in
  check_bool "ranking" true (Checks.ranking_ok ~reference_min cycles);
  check_bool "perturbed minimum" false
    (Checks.ranking_ok ~reference_min:(reference_min *. (1.0 -. 1e-9)) cycles);
  check_bool "unsorted" false (Checks.ranking_ok ~reference_min (List.rev cycles));
  (match Flexcl_dse.Heuristic.search_result ~num_domains:0 dev a space oracle with
  | Ok e ->
      check_bool "heuristic" true (Checks.heuristic_ok ~reference_min e.Explore.cycles);
      check_bool "perturbed heuristic minimum" false
        (Checks.heuristic_ok ~reference_min:(e.Explore.cycles +. 1.0) e.Explore.cycles)
  | Error _ -> Alcotest.fail "heuristic found no point");
  let ranking = Dse_sweep.ranking r in
  check_bool "same ranking" true (Checks.same_ranking ~reference:ranking ranking);
  check_bool "perturbed ranking" false
    (Checks.same_ranking
       ~reference:(List.map (fun (c, x) -> (c +. 1.0, x)) ranking)
       ranking)

let test_simrtl () =
  let w = Common.find_kernel "cfd/time_step" and dev = Device.ku060_2ddr in
  let a = Common.analyze w in
  let r = Sysrun.run ~seed:5 dev a (Common.config w) in
  let m = dev.Device.dram in
  let floor t_bus =
    Checks.simrtl_floor_ok ~mem_transactions:r.Sysrun.mem_transactions ~t_bus
      ~n_channels:m.Flexcl_dram.Dram.n_channels r.Sysrun.cycles
  in
  check_bool "transactions fit" true (floor m.Flexcl_dram.Dram.t_bus);
  check_bool "perturbed bus time" false (floor (1000 * m.Flexcl_dram.Dram.t_bus));
  check_bool "re-run" true (Sysrun.run ~seed:5 dev a (Common.config w) = r)

let test_cosim () =
  let p = Option.get (Flexcl_workloads.Pipelines.find "stencil/blur-sharpen") in
  let g = Common.analyze_graph p in
  let c = Cosim.run ~seed:3 Device.virtex7 g (Graph.default_joint g) in
  let stages = List.map (fun (_, r) -> r.Sysrun.cycles) c.Cosim.per_stage in
  check_bool "between slowest and sum" true
    (Checks.cosim_ok ~stage_cycles:stages c.Cosim.cycles);
  check_bool "perturbed stages" false
    (Checks.cosim_ok ~stage_cycles:(List.map (fun x -> x /. 10.0) stages) c.Cosim.cycles)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "allocation over domains" `Quick test_alloc_domains;
          Alcotest.test_case "failed operations" `Quick test_harness_failures;
          Alcotest.test_case "host probe and scaling" `Quick test_host;
        ] );
      ( "checks",
        [
          Alcotest.test_case "interpreter closed forms" `Quick test_interp;
          Alcotest.test_case "prediction bound" `Quick test_prediction;
          Alcotest.test_case "server caches" `Quick test_server;
          Alcotest.test_case "sweeps" `Quick test_sweep;
          Alcotest.test_case "simrtl" `Quick test_simrtl;
          Alcotest.test_case "cosim" `Quick test_cosim;
        ] );
    ]
