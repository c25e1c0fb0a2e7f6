(* The host's speed, measured beside the program, so that host time can be
   reported at one reference speed.

   On a shared VM the same code runs up to about twice as slow for seconds
   to minutes at a time. A probe timed in the same process, between
   operations, sees what the operations see. The probe is a fixed piece
   of the benchmark's own work shaped like the program's: a persistent
   binary search tree built by path copying (as [Map.add] builds one),
   with random keys, so it is branchy, pointer-chasing and write-heavy.
   It allocates nothing (its nodes live in a preallocated pool), so the
   program's heap and collector never enter it, and it is timed after an
   untimed pass over the same pool, so what the last operation evicted
   from the caches does not either. *)

let n_keys = 1000

(* Node [s] is [pool.(3s)] (key), [pool.(3s+1)] (left), [pool.(3s+2)]
   (right); 0 is the empty tree. Slots are handed out round the ring; a
   build hands out fewer than [slots], so a tree never overwrites itself. *)
let slots = 1 lsl 15

let pool = Array.make (3 * slots) 0

let next = ref 1

let node k l r =
  let s = !next in
  next := if s + 1 = slots then 1 else s + 1;
  pool.(3 * s) <- k;
  pool.((3 * s) + 1) <- l;
  pool.((3 * s) + 2) <- r;
  s

let rec insert t k =
  if t = 0 then node k 0 0
  else
    let tk = pool.(3 * t) in
    if k < tk then node tk (insert pool.((3 * t) + 1) k) pool.((3 * t) + 2)
    else if k > tk then node tk pool.((3 * t) + 1) (insert pool.((3 * t) + 2) k)
    else t

let rec sum t =
  if t = 0 then 0 else pool.(3 * t) + sum pool.((3 * t) + 1) + sum pool.((3 * t) + 2)

(* One build from the same keys every time; the key sum, so the work
   cannot be dropped. *)
let build () =
  let t = ref 0 and x = ref 7 in
  for _ = 1 to n_keys do
    x := ((!x * 1103515245) + 12345) land 0xffffff;
    t := insert !t !x
  done;
  sum !t

let timed_builds = 3

(* Nanoseconds for [timed_builds] builds, after one untimed build. *)
let probe_ns () =
  ignore (Sys.opaque_identity (build ()));
  let t0 = Clock.now_ns () in
  for _ = 1 to timed_builds do
    ignore (Sys.opaque_identity (build ()))
  done;
  Clock.ns_between t0 (Clock.now_ns ())

(* About what the probe takes on the 2-vCPU Xeon VM of the README's
   reference figures when it runs at full speed: a time scaled to it
   reads as it would there. *)
let reference_ns = 400_000.0

(* The time [ns], taken while the probe took [probe], at the reference
   speed. *)
let scale ~probe ns = ns *. reference_ns /. probe
