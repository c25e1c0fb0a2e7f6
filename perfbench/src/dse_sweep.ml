(* dse-sweep: the path [flexcl explore] takes, warm. A round is an
   exhaustive sweep ([Explore.specialized_model_oracle]) and a greedy
   search ([Heuristic.search_result]) per (kernel, device) pair, a
   [Graph.explore] of each pipeline graph,
   and one sweep on a slow-DRAM xc7vx690t variant, all on the calling
   domain (see [Layers.sweep]). Set-up analyses every kernel and runs
   one sweep of each kind, so the timed sweeps are warm.

   The pairs: hotspot on xc7vx690t, swept first; cfd/compute and
   dwt2d/compute on xc7vx690t; and six more kernels, which the seed
   spreads over the four devices.

   Two faults of the model's memo tables show in every round, because
   they key entries by names rather than by content:
   - the variant keeps the name xc7vx690t, so its sweep is answered from
     the real xc7vx690t's entries. It is checked against the same
     variant under a distinct name and fails, every round;
   - cfd/compute and dwt2d/compute are both kernels named [compute].
     Their entries evict each other, so one of their "warm" sweeps
     repeats its cold work in every round. The answers stay right (the
     entries carry the analysis they belong to), the work does not.
   No other same-named pair is swept, so every seed shows the second
   fault exactly once per round. *)

open Common
module Model = Flexcl_core.Model
module Space = Flexcl_dse.Space
module Explore = Flexcl_dse.Explore
module Graph = Flexcl_graph.Graph

let min_rounds = 48

(* Kernels swept besides hotspot and the two [compute] kernels: two
   light, two medium and two heavy by cold-sweep time. The set is fixed;
   the seed assigns their devices and the order of every round. (A
   seeded choice of kernels made peak RSS and set-up time differ by half
   between seeds.) *)
let others =
  [| "srad/extract"; "hybridsort/count"; "nn/nn"; "pathfinder/dynproc";
     "gemm/gemm"; "kmeans/center" |]

(* xc7vx690t with DRAM timing four times slower. *)
let slow_dram ~name =
  let d = Device.virtex7 in
  let m = d.Device.dram in
  { d with
    Device.name;
    dram =
      { m with
        Flexcl_dram.Dram.t_cas = 4 * m.Flexcl_dram.Dram.t_cas;
        t_rcd = 4 * m.Flexcl_dram.Dram.t_rcd;
        t_rp = 4 * m.Flexcl_dram.Dram.t_rp } }

let variant = slow_dram ~name:Device.virtex7.Device.name
let variant_renamed = slow_dram ~name:"xc7vx690t-slowdram"

let oracle = Explore.specialized_model_oracle

let ranking (r : Explore.evaluated list) =
  List.map (fun (e : Explore.evaluated) -> (e.Explore.cycles, e.Explore.config)) r

type pair = { w : W.t; dev : Device.t; a : Analysis.t; space : Space.t }

(* The point-by-point minimum over the feasible space, through the
   unstaged model. *)
let reference_min p =
  List.fold_left
    (fun m (c : Config.t) ->
      min m (Model.cycles p.dev (Explore.analysis_for p.a c.Config.wg_size) c))
    infinity
    (Space.feasible_points p.dev p.a p.space)

let graph_reference_min dev g =
  List.fold_left
    (fun m j -> min m (Graph.cycles dev g j))
    infinity
    (Graph.joint_points dev g Graph.default_jspace)

let setup ~seed =
  let rs = rng seed "dse-sweep" in
  let names = Array.to_list others in
  let off = Random.State.int rs (Array.length devices) in
  let hotspot = find_kernel "hotspot/hotspot" in
  let pairs =
    (hotspot, Device.virtex7)
    :: (find_kernel "cfd/compute", Device.virtex7)
    :: (find_kernel "dwt2d/compute", Device.virtex7)
    :: List.mapi
         (fun j n -> (find_kernel n, devices.((off + j) mod Array.length devices)))
         names
  in
  let pairs =
    Array.of_list
      (List.map
         (fun ((w : W.t), dev) ->
           let p = { w; dev; a = analyze w; space = Layers.space_of w } in
           ignore (Layers.sweep dev p.a p.space);
           ignore (Layers.heuristic dev p.a p.space);
           p)
         pairs)
  in
  let gdevs =
    Array.map (fun _ -> devices.(Random.State.int rs (Array.length devices))) graphs
  in
  let gs =
    Array.mapi
      (fun i p ->
        let g = analyze_graph p in
        ignore (Layers.graph_explore gdevs.(i) g);
        g)
      graphs
  in
  let hot = pairs.(0) in
  (* check references, computed when a check first needs them *)
  let ref_mins = Array.map (fun p -> lazy (reference_min p)) pairs in
  let graph_mins = Array.mapi (fun i g -> lazy (graph_reference_min gdevs.(i) g)) gs in
  let variant_reference =
    lazy
      (ranking
         (Explore.exhaustive ~num_domains:0 variant_renamed hot.a hot.space
            (oracle variant_renamed)))
  in
  let staged_replay p (r : Explore.evaluated list) =
    ignore (Span.time "ir.fingerprint_us" (fun () -> Launch.fingerprint p.a.Analysis.launch));
    Span.time "core.staged_eval_us"
      ~work:(fun () -> float_of_int (List.length r))
      (fun () ->
        List.iter
          (fun (e : Explore.evaluated) ->
            let c = e.Explore.config in
            let a = Explore.analysis_for p.a c.Config.wg_size in
            let sp = Explore.specialized_for p.dev a in
            ignore (Model.specialized_cycles sp c))
          r)
  in
  let sweep_op i () =
    let p = pairs.(i) in
    let r = Layers.sweep p.dev p.a p.space in
    if !Span.enabled then staged_replay p r;
    fun () ->
      Checks.ranking_ok ~reference_min:(Lazy.force ref_mins.(i))
        (List.map (fun (e : Explore.evaluated) -> e.Explore.cycles) r)
  in
  let heuristic_op i () =
    let p = pairs.(i) in
    let r = Layers.heuristic p.dev p.a p.space in
    fun () ->
      match r with
      | Ok e -> Checks.heuristic_ok ~reference_min:(Lazy.force ref_mins.(i)) e.Explore.cycles
      | Error _ -> false
  in
  let graph_op i () =
    let r = Layers.graph_explore gdevs.(i) gs.(i) in
    fun () ->
      let cyc = List.map (fun (e : Graph.jevaluated) -> e.Graph.jcycles) r in
      Checks.ranking_ok ~reference_min:(Lazy.force graph_mins.(i)) cyc
  in
  let variant_op () =
    let r = Layers.sweep variant hot.a hot.space in
    fun () -> Checks.same_ranking ~reference:(Lazy.force variant_reference) (ranking r)
  in
  let round r =
    (* hotspot on the real xc7vx690t first, the same-name variant last *)
    let order = permutation (Random.State.make [| seed; r; 43 |]) (Array.length pairs - 1) in
    let ops =
      [ sweep_op 0; heuristic_op 0 ]
      @ List.concat_map
          (fun i -> [ sweep_op (i + 1); heuristic_op (i + 1) ])
          (Array.to_list order)
      @ List.init (Array.length gs) graph_op
      @ [ variant_op ]
    in
    { Harness.ops = Array.of_list ops; after = (fun () -> true) }
  in
  let complement () =
    Layers.complement hot.w hot.dev (Common.config hot.w) graphs.(0) gdevs.(0)
  in
  { Harness.round_size = (2 * Array.length pairs) + Array.length gs + 1;
    round; complement; report = ignore }
