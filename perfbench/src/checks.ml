(* Output checks. Each compares an output of the program with a
   reference computed apart from it, or with a property the method must
   have. Every check takes its reference as an argument, so the tests
   can feed a perturbed one and see the check fail. *)

module Launch = Flexcl_ir.Launch
module Interp = Flexcl_interp.Interp
module Prng = Flexcl_util.Prng
module W = Flexcl_workloads.Workload

(* ------------------------------------------------------------------ *)
(* Interpreter results against closed forms *)

(* What a kernel's final buffers must hold: given cells, or the total of
   a buffer. *)
type expectation =
  | Cells of string * (int * float) list
  | Total of string * float

(* Initial buffer contents from a launch recipe — the generator and the
   per-element draw the launch description specifies. *)
let initial (launch : Launch.t) name ~is_int =
  match Launch.find_arg launch name with
  | Some (Launch.Buffer { length; init }) -> (
      match init with
      | Launch.Zeros -> Array.make length 0.0
      | Launch.Ramp -> Array.init length float_of_int
      | Launch.Const_init c -> Array.make length (if is_int then Float.trunc c else c)
      | Launch.Random_floats seed ->
          let rng = Prng.create seed in
          Array.init length (fun _ ->
              let x = Prng.float rng 1.0 in
              if is_int then Float.trunc (x *. 100.0) else x)
      | Launch.Random_ints (seed, bound) ->
          let rng = Prng.create seed in
          Array.init length (fun _ -> float_of_int (Prng.int rng (max 1 bound))))
  | _ -> invalid_arg ("Checks.initial: no buffer " ^ name)

let int_arg launch name =
  match Launch.find_arg launch name with
  | Some (Launch.Scalar (Launch.Int v)) -> Int64.to_int v
  | _ -> invalid_arg ("Checks.int_arg: " ^ name)

let float_arg launch name =
  match Launch.find_arg launch name with
  | Some (Launch.Scalar (Launch.Float v)) -> v
  | _ -> invalid_arg ("Checks.float_arg: " ^ name)

let floats launch name = initial launch name ~is_int:false
let ints launch name = initial launch name ~is_int:true

(* The kernels with a closed-form result, recomputed in OCaml with the
   kernels' own operation order. [pick] selects the one gemm element. *)
let closed_form ~pick (w : W.t) =
  let l = w.W.launch in
  match W.name w with
  | "gemm/gemm" ->
      let nk = int_arg l "nk" in
      let a = floats l "a" and b = floats l "b" and c = floats l "c" in
      let alpha = float_arg l "alpha" and beta = float_arg l "beta" in
      let idx = pick mod (nk * nk) in
      let i = idx / nk and j = idx mod nk in
      let acc = ref 0.0 in
      for k = 0 to nk - 1 do
        acc := !acc +. (a.((i * nk) + k) *. b.((k * nk) + j))
      done;
      Some [ Cells ("c", [ (idx, (beta *. c.(idx)) +. (alpha *. !acc)) ]) ]
  | "nn/nn" ->
      let n = int_arg l "num_records" in
      let loc = floats l "locations" in
      let lat = float_arg l "lat" and lng = float_arg l "lng" in
      Some
        [
          Cells
            ( "distances",
              List.init n (fun g ->
                  let dx = lat -. loc.(g * 2) and dy = lng -. loc.((g * 2) + 1) in
                  (g, sqrt ((dx *. dx) +. (dy *. dy)))) );
        ]
  | "cfd/time_step" ->
      let n = int_arg l "n" in
      let old = floats l "old_vars" and fl = floats l "fluxes" in
      let factor = float_arg l "factor" in
      Some
        [ Cells ("vars", List.init n (fun i -> (i, old.(i) +. (factor *. fl.(i))))) ]
  | "kmeans/swap" ->
      let np = int_arg l "npoints" and nf = int_arg l "nfeatures" in
      let f = floats l "feature" in
      Some
        [
          Cells
            ( "feature_swap",
              List.init (np * nf) (fun k ->
                  let i = k / np and g = k mod np in
                  (k, f.((g * nf) + i))) );
        ]
  | "hybridsort/count" -> Some [ Total ("histo", float_of_int (int_arg l "listsize")) ]
  | "pathfinder/dynproc" ->
      let cols = int_arg l "cols" and it = int_arg l "iteration" in
      let wall = ints l "wall" and src = ints l "src" in
      Some
        [
          Cells
            ( "dst",
              List.init cols (fun t ->
                  let m = ref src.(t) in
                  if t > 0 && src.(t - 1) < !m then m := src.(t - 1);
                  if t < cols - 1 && src.(t + 1) < !m then m := src.(t + 1);
                  (t, !m +. wall.((it * cols) + t))) );
        ]
  | _ -> None

let closed_form_kernels =
  [ "gemm/gemm"; "nn/nn"; "cfd/time_step"; "kmeans/swap"; "hybridsort/count";
    "pathfinder/dynproc" ]

let buffers_match expectations (buffers : (string * Interp.value array) list) =
  List.for_all
    (fun e ->
      match e with
      | Cells (name, cells) -> (
          match List.assoc_opt name buffers with
          | None -> false
          | Some buf ->
              List.for_all
                (fun (i, v) ->
                  i < Array.length buf && Interp.to_float buf.(i) = v)
                cells)
      | Total (name, total) -> (
          match List.assoc_opt name buffers with
          | None -> false
          | Some buf ->
              Array.fold_left (fun s v -> s +. Interp.to_float v) 0.0 buf = total))
    expectations

(* ------------------------------------------------------------------ *)
(* Predictions *)

(* [Model.lower_bound] holds up to float rounding. *)
let prediction_ok ~lower_bound cycles =
  Float.is_finite cycles && cycles > 0.0
  && cycles >= lower_bound *. (1.0 -. 1e-9)

(* Hit and miss counts of one serve cache, from the [stats] result. *)
type cache_counts = { hits : int; misses : int }

let cache_counts stats name =
  let module J = Flexcl_util.Json in
  let field c k = Option.bind (J.member k c) J.to_int in
  match Option.bind (J.member "cache" stats) (J.member name) with
  | Some c -> (
      match (field c "hits", field c "misses") with
      | Some hits, Some misses -> Some { hits; misses }
      | _ -> None)
  | None -> None

(* Between two [stats] snapshots, the cache answered exactly [hits]
   hits and [misses] misses. *)
let cache_delta_is ~before ~after ~hits ~misses =
  after.hits - before.hits = hits && after.misses - before.misses = misses

(* A cache hit: answered from the cache, with a result object
   byte-identical to the cold answer [cold] to the same request. *)
let hit_ok ~cold resp =
  match Common.parse_response resp with
  | Some { Common.cached = Some true; result } ->
      String.equal (Flexcl_util.Json.to_string result) cold
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Design-space sweeps *)

let sorted_by_cycles cycles =
  let rec go = function
    | a :: (b :: _ as rest) -> a <= b && go rest
    | _ -> true
  in
  cycles <> [] && go cycles

(* The ranking's first point is the point-by-point minimum. *)
let ranking_ok ~reference_min cycles =
  sorted_by_cycles cycles && List.hd cycles = reference_min

let heuristic_ok ~reference_min pick = Float.is_finite pick && pick >= reference_min

(* The same sweep, run on a device that differs only by name, ranks the
   same points at the same cycles. *)
let same_ranking ~reference (ranking : (float * Flexcl_core.Config.t) list) =
  ranking = reference

(* ------------------------------------------------------------------ *)
(* Ground truths *)

(* No design point finishes before its DRAM transactions have crossed
   the data buses. *)
let simrtl_floor_ok ~mem_transactions ~t_bus ~n_channels cycles =
  cycles
  >= float_of_int mem_transactions *. float_of_int t_bus
     /. float_of_int (max 1 n_channels)

(* A pipeline finishes no sooner than its slowest stage alone and no
   later than its stages run back to back. *)
let cosim_ok ~stage_cycles cycles =
  stage_cycles <> []
  && cycles >= List.fold_left max neg_infinity stage_cycles
  && cycles <= List.fold_left ( +. ) 0.0 stage_cycles
