(* predict-cold: a designer's first question about a kernel. Each round
   sends every bundled kernel once, as a [predict] through
   [Server.handle_line], to a server that has never seen it (a fresh
   in-process server per round), so the parse, analysis and predict
   caches all miss. Round [r] puts kernel [i] on device
   [(offset_i + r) mod 4]: over four rounds each kernel meets each
   device once. *)

open Common
module Server = Flexcl_server.Server
module Model = Flexcl_core.Model
module Interp = Flexcl_interp.Interp
module Sema = Flexcl_opencl.Sema

(* Two passes of the device rotation: the median of 240 operations of
   very different cost moved by a sixth between runs; 480 hold it
   steadier. *)
let min_rounds = 8

(* Interpreter results of the closed-form kernels, over the full
   NDRange. *)
let interp_verdict ~seed (w : W.t) =
  match Checks.closed_form ~pick:(abs seed * 7919) w with
  | None -> true
  | Some expect ->
      let k = W.parse w in
      let p =
        Span.time "interp.run_all_ms" (fun () ->
            Interp.run_all k (Sema.analyze k) w.W.launch)
      in
      Checks.buffers_match expect p.Interp.buffers

let config w = Common.config ~pipeline:true w

let setup ~seed =
  let server = Server.create ~num_domains:0 () in
  let verdicts =
    List.map
      (fun n -> (n, interp_verdict ~seed (find_kernel n)))
      Checks.closed_form_kernels
  in
  let rs = rng seed "predict-cold.devices" in
  let offsets = Array.map (fun _ -> Random.State.int rs 4) kernels in
  (* analyses for the lower-bound check, made apart from the server's *)
  let bound_analyses = Hashtbl.create 64 in
  let lower_bound (w : W.t) dev cfg =
    let a =
      match Hashtbl.find_opt bound_analyses (W.name w) with
      | Some a -> a
      | None ->
          let a = Analysis.analyze (W.parse w) w.W.launch in
          Hashtbl.add bound_analyses (W.name w) a;
          a
    in
    Model.lower_bound dev a cfg
  in
  let check (w : W.t) dev resp () =
    match parse_response resp with
    | Some { cached = Some false; result } -> (
        (match List.assoc_opt (W.name w) verdicts with Some v -> v | None -> true)
        &&
        match num "cycles" result with
        | Some c -> Checks.prediction_ok ~lower_bound:(lower_bound w dev (config w)) c
        | None -> false)
    | _ -> false
  in
  let n = Array.length kernels in
  let round r =
    let srv = if r = 0 then server else Server.create ~num_domains:0 () in
    let order = permutation (Random.State.make [| seed; r; 17 |]) n in
    let ops =
      Array.map
        (fun i ->
          let w = kernels.(i) in
          let dev = devices.((offsets.(i) + r) mod Array.length devices) in
          let line = predict_line ~id:i w dev (config w) in
          fun () ->
            let resp =
              Span.time "server.miss_ms" (fun () -> Server.handle_line srv line)
            in
            if !Span.enabled then Layers.kernel_layers w dev (config w);
            check w dev resp)
        order
    in
    let after () =
      let stats = Server.stats_json srv in
      (match Checks.cache_counts stats "predict" with
      | Some { Checks.hits; misses } -> Layers.hit_ratio ~hits ~misses
      | None -> ());
      (* a fresh server: its counters are the round's *)
      List.for_all
        (fun cache ->
          Checks.cache_counts stats cache = Some { Checks.hits = 0; misses = n })
        [ "parse"; "analysis"; "predict" ]
    in
    { Harness.ops; after }
  in
  let complement () =
    let order = permutation (Random.State.make [| seed; 0; 17 |]) n in
    let i = order.(0) in
    let w = kernels.(i) in
    Layers.complement w devices.(offsets.(i)) (config w) graphs.(0) devices.(offsets.(i))
  in
  { Harness.round_size = n; round; complement; report = ignore }
