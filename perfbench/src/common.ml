(* Inputs shared by the workloads: the bundled kernels, the devices, and
   seeded choices over them. *)

module W = Flexcl_workloads.Workload
module Device = Flexcl_device.Device
module Launch = Flexcl_ir.Launch
module Config = Flexcl_core.Config
module Analysis = Flexcl_core.Analysis
module Json = Flexcl_util.Json
module Pipelines = Flexcl_workloads.Pipelines

let kernels = Array.of_list (Flexcl_workloads.Rodinia.all @ Flexcl_workloads.Polybench.all)

let find_kernel name =
  match Array.find_opt (fun w -> W.name w = name) kernels with
  | Some w -> w
  | None -> invalid_arg ("Common.find_kernel: " ^ name)

(* Single- and multi-channel DDR, and HBM. Each device's name is also
   its name on the serve wire. *)
let devices = [| Device.virtex7; Device.ku060; Device.ku060_2ddr; Device.u280 |]

let graphs = Array.of_list Pipelines.all

(* A generator per (seed, purpose), so adding a draw for one purpose
   leaves the others' inputs unchanged. *)
let rng seed purpose = Random.State.make [| seed; Hashtbl.hash purpose |]

let permutation rs n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A fresh parse and analysis: new physical values, so no memo table of
   the program can answer for them from an earlier run of the same
   kernel. *)
let analyze (w : W.t) =
  let k = Span.time "opencl.parse_us" (fun () -> W.parse w) in
  Span.time "core.analyze_ms" (fun () -> Analysis.analyze k w.W.launch)

let analyze_graph (p : Pipelines.t) =
  match
    Span.time "graph.analyze_ms" (fun () ->
        Flexcl_graph.Graph.analyze (Pipelines.graph p))
  with
  | Ok g -> g
  | Error _ -> failwith ("Common.analyze_graph: " ^ p.Pipelines.name)

let config ?(pe = 1) ?(cu = 1) ?(pipeline = true) ?(mode = Config.Pipeline_mode)
    (w : W.t) =
  { Config.wg_size = Launch.wg_size w.W.launch; n_pe = pe; n_cu = cu;
    wi_pipeline = pipeline; comm_mode = mode }

let mode_name = function
  | Config.Pipeline_mode -> "pipeline"
  | Config.Barrier_mode -> "barrier"

let predict_line ~id ?(trace = false) (w : W.t) (dev : Device.t) (cfg : Config.t) =
  Json.to_string
    (Json.Obj
       ([ ("id", Json.int id); ("kind", Json.Str "predict");
          ("workload", Json.Str (W.name w)); ("device", Json.Str dev.Device.name);
          ("pe", Json.int cfg.Config.n_pe); ("cu", Json.int cfg.Config.n_cu);
          ("pipeline", Json.Bool cfg.Config.wi_pipeline);
          ("mode", Json.Str (mode_name cfg.Config.comm_mode)) ]
       @ if trace then [ ("trace", Json.Bool true) ] else []))

let pipeline_line ~id ?(trace = false) (p : Pipelines.t) (dev : Device.t) =
  Json.to_string
    (Json.Obj
       ([ ("id", Json.int id); ("kind", Json.Str "pipeline");
          ("graph", Json.Str p.Pipelines.name); ("device", Json.Str dev.Device.name) ]
       @ if trace then [ ("trace", Json.Bool true) ] else []))

(* A response's fields, or [None] when it is not a well-formed success. *)
type response = { cached : bool option; result : Json.t }

let parse_response line =
  match Json.of_string line with
  | Error _ -> None
  | Ok v -> (
      match (Json.member "ok" v, Json.member "result" v) with
      | Some (Json.Bool true), Some result ->
          Some { cached = Option.bind (Json.member "cached" v) Json.to_bool; result }
      | _ -> None)

let num field v = Option.bind (Json.member field v) Json.to_float
