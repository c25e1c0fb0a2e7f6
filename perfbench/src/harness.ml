(* The closed loop every workload runs: whole rounds of operations until
   the run length has passed (and at least [min_rounds] rounds), each
   operation timed alone, its output checked after the round outside the
   timed region. Between operations, at most every [probe_interval_ns],
   the host's speed is probed ([Host]); each operation's time is also
   reported scaled to the reference speed, by the probes around it. *)

(* An operation runs timed and returns its check, which runs later. *)
type op = unit -> unit -> bool

(* [after] is a check over the whole round (e.g. cache counters); when it
   fails, every operation of the round counts as failed. *)
type round = { ops : op array; after : unit -> bool }

(* What a workload hands the run loop after one set-up. *)
type instance = {
  round_size : int;  (** operations per round. *)
  round : int -> round;  (** the operations of round [r]. *)
  complement : unit -> unit;
      (** traced run only: replay, on this workload's first input, the
          layers its own operations never call. *)
  report : unit -> unit;  (** reference figures, to stderr. *)
}

(* A time as measured, and scaled to the reference host speed. *)
type timing = { scaled : float; wall : float }

type outcome = {
  latencies_ns : timing array;
  round_rates : timing list;  (** operations per second, per round. *)
  attempted : int;
  failed : int;
  alloc_words : float;  (** allocated during the timed operations. *)
  rounds : int;
  check_s : float;  (** checking outputs, untimed. *)
  rss_mb : float;  (** peak RSS once the first [min_rounds] rounds are done. *)
  host_speed : float;  (** median over the run's probes of reference / probe time. *)
}

let probe_interval_ns = 50e6

(* An operation after probe [k] is scaled by the median of probes [k-1]
   to [k+2]: two before it and two after, about 200 ms of host time. *)
let probe_window = 2

(* The median of [a.(max 0 (k - w + 1)) .. a.(min (n - 1) (k + w))]. *)
let window_median a k w =
  let lo = max 0 (k - w + 1) and hi = min (Array.length a - 1) (k + w) in
  Stats.median (Array.to_list (Array.sub a lo (hi - lo + 1)))

let failed_op () = false

let guard (op : op) () = try op () with _ -> failed_op

(* A float or int array that grows as it is pushed to. *)
module Grow = struct
  type 'a t = { mutable a : 'a array; mutable n : int; zero : 'a }

  let make zero = { a = Array.make 1024 zero; n = 0; zero }

  let push g v =
    if g.n = Array.length g.a then begin
      let bigger = Array.make (2 * g.n) g.zero in
      Array.blit g.a 0 bigger 0 g.n;
      g.a <- bigger
    end;
    g.a.(g.n) <- v;
    g.n <- g.n + 1

  let contents g = Array.sub g.a 0 g.n
end

let run ~seconds ~min_rounds (make_round : int -> round) =
  let lat = Grow.make 0.0 and lat_probe = Grow.make 0 and probes = Grow.make 0.0 in
  let last_probe = ref 0L in
  let take_probe () =
    Grow.push probes (Host.probe_ns ());
    last_probe := Clock.now_ns ()
  in
  let sizes = ref [] and attempted = ref 0 and failed = ref 0 in
  let alloc = ref 0.0 and rounds = ref 0 and op_id = ref 0 in
  let check_s = ref 0.0 and rss_mb = ref 0.0 in
  take_probe ();
  let t_start = Clock.now_ns () in
  while !rounds < min_rounds || Clock.since_s t_start < seconds do
    let rd = make_round !rounds in
    let n = Array.length rd.ops in
    let checks = Array.make n failed_op in
    let times = Array.make n 0.0 and at_probe = Array.make n 0 in
    let w0 = Stats.allocated_words () in
    for i = 0 to n - 1 do
      if Clock.ns_between !last_probe (Clock.now_ns ()) >= probe_interval_ns then take_probe ();
      incr op_id;
      Span.current_op := !op_id;
      let a = Clock.now_ns () in
      let c = guard rd.ops.(i) () in
      let b = Clock.now_ns () in
      checks.(i) <- c;
      times.(i) <- Clock.ns_between a b;
      at_probe.(i) <- probes.Grow.n - 1
    done;
    let w1 = Stats.allocated_words () in
    alloc := !alloc +. (w1 -. w0);
    Array.iter (Grow.push lat) times;
    Array.iter (Grow.push lat_probe) at_probe;
    sizes := n :: !sizes;
    let c0 = Clock.now_ns () in
    let round_ok = try rd.after () with _ -> false in
    Array.iter
      (fun c ->
        incr attempted;
        if not (round_ok && try c () with _ -> false) then incr failed)
      checks;
    check_s := !check_s +. Clock.since_s c0;
    incr rounds;
    if !rounds = min_rounds then rss_mb := Stats.peak_rss_mb ()
  done;
  take_probe ();
  let probes = Grow.contents probes in
  let local = Array.mapi (fun k _ -> window_median probes k probe_window) probes in
  let lat_probe = Grow.contents lat_probe in
  let latencies_ns =
    Array.mapi
      (fun i wall -> { wall; scaled = Host.scale ~probe:local.(lat_probe.(i)) wall })
      (Grow.contents lat)
  in
  (* each round's rate from its operations' summed times, rounds in order *)
  let round_rates, _ =
    List.fold_left
      (fun (acc, first) n ->
        let rate f =
          let s = ref 0.0 in
          for i = first to first + n - 1 do
            s := !s +. f latencies_ns.(i)
          done;
          float_of_int n /. (!s /. 1e9)
        in
        ({ scaled = rate (fun t -> t.scaled); wall = rate (fun t -> t.wall) } :: acc, first + n))
      ([], 0) (List.rev !sizes)
  in
  { latencies_ns; round_rates; attempted = !attempted; failed = !failed;
    alloc_words = !alloc; rounds = !rounds; check_s = !check_s; rss_mb = !rss_mb;
    host_speed =
      Stats.median (Array.to_list (Array.map (fun p -> Host.reference_ns /. p) probes)) }

let setup_probes = 3

(* Run [f] [reps] times; the median duration in seconds, as measured and
   scaled by the median of [setup_probes] probes on each side of it, and
   the last state. *)
let setup ~reps f =
  let probe () = List.init setup_probes (fun _ -> Host.probe_ns ()) in
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    let before = probe () in
    let t0 = Clock.now_ns () in
    let st = f () in
    let wall = Clock.since_s t0 in
    let p = Stats.median (before @ probe ()) in
    times := { wall; scaled = Host.scale ~probe:p wall } :: !times;
    last := Some st
  done;
  match !last with
  | Some st ->
      let med f = Stats.median (List.map f !times) in
      ({ scaled = med (fun t -> t.scaled); wall = med (fun t -> t.wall) }, st)
  | None -> invalid_arg "Harness.setup: reps must be >= 1"
