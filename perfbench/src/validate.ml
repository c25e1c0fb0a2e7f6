(* validate: the ground truths that [suite] and [learn] rest on. A round
   runs [Sysrun.run] (simrtl) beside [Model.estimate] at one design
   point of every bundled kernel — kernel [i] on device
   [(i + 2r) mod 4], so each round spreads the kernels evenly over the
   four devices — and [Cosim.run] beside [Graph.estimate] for both
   pipeline graphs. The seed orders each round, and a kernel's place in
   that order picks its design point from the feasible points at the
   launch's work-group size: place [p] of [n] takes the point at
   [(2p+1)/2n] of the list, so every round spreads its picks evenly over
   the lists. (Points drawn independently moved [latency_p50_ms] by a
   sixth between seeds.) The devices are not seeded: when they were,
   which heavy kernels landed on which device moved [latency_tail_ms] by
   a fifth between seeds. *)

open Common
module Model = Flexcl_core.Model
module Sysrun = Flexcl_simrtl.Sysrun
module Graph = Flexcl_graph.Graph
module Cosim = Flexcl_graph.Cosim

let min_rounds = 2

(* The first point of each round is simulated twice, to check that
   simrtl answers the same for the same seed. (Once per round: the
   re-run repeats the full-NDRange profile, which the simulator's small
   profile cache no longer holds by the time checks run.) *)

(* |model - truth| / truth over every point checked, in percent *)
let errors_sim = ref []
let errors_cosim = ref []

let rel_err est truth = 100.0 *. Float.abs (est -. truth) /. truth

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let setup ~seed =
  let analyses = Array.map analyze kernels in
  let gs = Array.map analyze_graph graphs in
  let nd = Array.length devices in
  let sim_seed = abs seed mod 1_000_003 in
  let kernel_op ~rerun i dev cfg () =
    let a = analyses.(i) in
    let est = Model.estimate dev a cfg in
    let sim = Layers.simrtl ~seed:sim_seed dev a cfg in
    if !Span.enabled then Layers.run_all a;
    fun () ->
      let m = dev.Device.dram in
      errors_sim := rel_err est.Model.cycles sim.Sysrun.cycles :: !errors_sim;
      Checks.prediction_ok ~lower_bound:0.0 est.Model.cycles
      && Checks.simrtl_floor_ok ~mem_transactions:sim.Sysrun.mem_transactions
           ~t_bus:m.Flexcl_dram.Dram.t_bus ~n_channels:m.Flexcl_dram.Dram.n_channels
           sim.Sysrun.cycles
      && ((not rerun) || Sysrun.run ~seed:sim_seed dev a cfg = sim)
  in
  let graph_op gi dev () =
    let g = gs.(gi) in
    let j = Graph.default_joint g in
    let est = Graph.estimate dev g j in
    let c = Span.time "graph.cosim_ms" (fun () -> Cosim.run ~seed:sim_seed dev g j) in
    fun () ->
      errors_cosim := rel_err est.Graph.cycles c.Cosim.cycles :: !errors_cosim;
      Checks.cosim_ok
        ~stage_cycles:(List.map (fun (_, r) -> r.Sysrun.cycles) c.Cosim.per_stage)
        c.Cosim.cycles
  in
  let round r =
    let rs = Random.State.make [| seed; r; 61 |] in
    let order = permutation rs (Array.length kernels) in
    let kernel_ops =
      Array.mapi
        (fun pos i ->
          let w = kernels.(i) and a = analyses.(i) in
          let dev = devices.((i + (2 * r)) mod nd) in
          let pts = Array.of_list (Layers.points_at_launch dev a w) in
          let cfg =
            if pts = [||] then Common.config w
            else
              let n = Array.length order and m = Array.length pts in
              pts.(min (m - 1) (((2 * pos) + 1) * m / (2 * n)))
          in
          kernel_op ~rerun:(pos = 0) i dev cfg)
        order
    in
    let graph_ops =
      Array.mapi (fun gi _ -> graph_op gi devices.((gi + (2 * r)) mod nd)) gs
    in
    { Harness.ops = Array.append kernel_ops graph_ops; after = (fun () -> true) }
  in
  let complement () =
    let w = kernels.(0) in
    Layers.complement w devices.(0) (Common.config w) graphs.(0) devices.(0)
  in
  let report () =
    Printf.eprintf
      "validate: model mean |error| %.2f%% against simrtl (%d points), %.2f%% against cosim (%d points)\n"
      (mean !errors_sim) (List.length !errors_sim) (mean !errors_cosim)
      (List.length !errors_cosim)
  in
  { Harness.round_size = Array.length kernels + Array.length gs; round;
    complement; report }
