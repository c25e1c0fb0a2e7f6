(* Spans recorded around the benchmark's own calls into each layer's
   public functions. Off by default: an untraced run pays one branch per
   call site. A traced run keeps every span in memory (raw spans up to a
   cap, per-name totals without one) and writes them out when it ends.

   A span carries [work]: the units it processed (design points,
   traced accesses), so per-unit means are total time over total work.
   A count is a span without a duration.
   Spans taken in the complement pass — the one-off replay that covers
   layers a workload's own operations never call — are kept apart and
   only stand in for layers that got no span of their own. *)

let enabled = ref false

(* Identifier of the operation the current spans belong to. *)
let current_op = ref 0

let complement = ref false

type span = {
  name : string;
  op : int;
  start_ns : int64;
  stop_ns : int64;
  work : float;
  in_complement : bool;
}

type total = { mutable calls : int; mutable ns : float; mutable units : float }

let raw_cap = 200_000
let raw : span list ref = ref []
let n_raw = ref 0
let primary : (string, total) Hashtbl.t = Hashtbl.create 64
let compl : (string, total) Hashtbl.t = Hashtbl.create 64

let reset () =
  raw := [];
  n_raw := 0;
  current_op := 0;
  complement := false;
  Hashtbl.reset primary;
  Hashtbl.reset compl

let bump name ~ns ~work =
  let tbl = if !complement then compl else primary in
  let t =
    match Hashtbl.find_opt tbl name with
    | Some t -> t
    | None ->
        let t = { calls = 0; ns = 0.0; units = 0.0 } in
        Hashtbl.add tbl name t;
        t
  in
  t.calls <- t.calls + 1;
  t.ns <- t.ns +. ns;
  t.units <- t.units +. work

let record name ~start_ns ~stop_ns ~work =
  let ns = Clock.ns_between start_ns stop_ns in
  bump name ~ns ~work;
  if !n_raw < raw_cap then begin
    incr n_raw;
    raw :=
      { name; op = !current_op; start_ns; stop_ns; work;
        in_complement = !complement }
      :: !raw
  end

(* [time name f] runs [f] and, when tracing, records its span; [work]
   maps the result to the units processed (default 1). *)
let time ?(work = fun _ -> 1.0) name f =
  if not !enabled then f ()
  else begin
    let t0 = Clock.now_ns () in
    let r = f () in
    let t1 = Clock.now_ns () in
    record name ~start_ns:t0 ~stop_ns:t1 ~work:(work r);
    r
  end

let count name v = if !enabled then bump name ~ns:0.0 ~work:v

let in_complement f =
  complement := true;
  Fun.protect ~finally:(fun () -> complement := false) f

let find name =
  match Hashtbl.find_opt primary name with
  | Some t -> Some t
  | None -> Hashtbl.find_opt compl name

(* Mean duration per call, in ns. *)
let mean_ns name =
  match find name with
  | Some t when t.calls > 0 -> Some (t.ns /. float_of_int t.calls)
  | _ -> None

(* Total duration over total work units, in ns. *)
let ns_per_unit name =
  match find name with
  | Some t when t.units > 0.0 -> Some (t.ns /. t.units)
  | _ -> None

(* Mean work units per call; for a count, its mean. *)
let mean_units name =
  match find name with
  | Some t when t.calls > 0 -> Some (t.units /. float_of_int t.calls)
  | _ -> None

let write_jsonl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"name\":%S,\"op\":%d,\"start_ns\":%Ld,\"stop_ns\":%Ld,\"work\":%.17g,\"complement\":%b}\n"
            s.name s.op s.start_ns s.stop_ns s.work s.in_complement)
        (List.rev !raw))
