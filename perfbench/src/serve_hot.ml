(* serve-hot: the same server answering a working set it has already
   answered. The set holds a plain [predict] per bundled kernel (on a
   seeded rotation of the devices), a traced one for every sixth kernel
   (two devices further on), a [pipeline] request per graph on each
   device and one traced [pipeline] per graph — 80 entries, below the
   cache capacity of 256. Set-up sends the set once (every request
   misses); each timed round replays it in a fresh order, so every timed
   request hits. (With a traced predict for every kernel, re-encoding
   trace-laden hits made up most of a round, and [ops_per_s] spread a
   third of its median over ten seeds.) *)

open Common
module Server = Flexcl_server.Server
module Hash = Flexcl_util.Hash

let min_rounds = 13

type item = { line : string; kernel : W.t option; cold : string option }

let setup ~seed =
  let server = Server.create ~num_domains:0 () in
  let rs = rng seed "serve-hot" in
  let nd = Array.length devices in
  let off = Random.State.int rs nd in
  let predicts =
    Array.to_list kernels
    |> List.mapi (fun i w ->
           let cfg =
             Common.config ~pipeline:(i mod 2 = 0)
               ~mode:(if i / 2 mod 2 = 0 then Config.Pipeline_mode else Config.Barrier_mode)
               w
           in
           let d1 = devices.((off + i) mod nd) and d2 = devices.((off + i + 2) mod nd) in
           let traced =
             if i mod 6 = 0 then
               [ (Some w, fun id -> predict_line ~id ~trace:true w d2 cfg) ]
             else []
           in
           (Some w, fun id -> predict_line ~id w d1 cfg) :: traced)
    |> List.concat
  in
  let pipelines =
    Array.to_list graphs
    |> List.concat_map (fun p ->
           let td = devices.(Random.State.int rs nd) in
           List.map (fun d -> (None, fun id -> pipeline_line ~id p d)) (Array.to_list devices)
           @ [ (None, fun id -> pipeline_line ~id ~trace:true p td) ])
  in
  let items =
    Array.of_list
      (List.mapi
         (fun id (kernel, mk) ->
           let line = mk id in
           let resp = Span.time "server.miss_ms" (fun () -> Server.handle_line server line) in
           let cold =
             match parse_response resp with
             | Some { cached = Some false; result } -> Some (Json.to_string result)
             | _ -> None
           in
           { line; kernel; cold })
         (predicts @ pipelines))
  in
  let n = Array.length items in
  let counts () = Checks.cache_counts (Server.stats_json server) "predict" in
  let last = ref (counts ()) in
  let replay it resp =
    ignore (Span.time "util.json_decode_us" (fun () -> Json.of_string it.line));
    (match it.kernel with
    | Some w ->
        ignore (Span.time "util.hash_us" (fun () -> Hash.string w.W.source));
        ignore (Span.time "ir.fingerprint_us" (fun () -> Launch.fingerprint w.W.launch))
    | None -> ());
    match Json.of_string resp with
    | Ok v -> ignore (Span.time "util.json_encode_us" (fun () -> Json.to_string v))
    | Error _ -> ()
  in
  let round r =
    let order = permutation (Random.State.make [| seed; r; 29 |]) n in
    let ops =
      Array.map
        (fun i ->
          let it = items.(i) in
          fun () ->
            let resp =
              Span.time "server.hit_us" (fun () -> Server.handle_line server it.line)
            in
            if !Span.enabled then replay it resp;
            fun () ->
              match it.cold with
              | Some cold -> Checks.hit_ok ~cold resp
              | None -> false)
        order
    in
    let after () =
      let now = counts () in
      let before = !last in
      last := now;
      match (before, now) with
      | Some before, Some after ->
          Layers.hit_ratio ~hits:(after.Checks.hits - before.Checks.hits)
            ~misses:(after.Checks.misses - before.Checks.misses);
          Checks.cache_delta_is ~before ~after ~hits:n ~misses:0
      | _ -> false
    in
    { Harness.ops; after }
  in
  let complement () =
    let w = kernels.(0) in
    Layers.complement w devices.(0) (Common.config w) graphs.(0) devices.(0)
  in
  { Harness.round_size = n; round; complement; report = ignore }
