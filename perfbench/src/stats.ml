(* Summary statistics of one run, and the process counters the
   end-to-end metrics read. *)

(* Nearest-rank percentile, [pm] in per-mille (500 = median, 990 = p99):
   the sample of 1-based rank ceil(pm/1000 * n) in sorted order. Integer
   arithmetic, so the rank never drifts with float rounding. *)
let rank ~permille n = max 1 ((permille * n + 999) / 1000)

let percentile sorted ~permille =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  sorted.(rank ~permille n - 1)

(* The median of an even count is the mean of the two middle samples. *)
let median values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Samples strictly beyond the percentile's rank. *)
let beyond ~permille n = n - rank ~permille n

(* p99.9 is left out: on serve-hot it read 0.48 to 1.12 ms over ten runs
   of the same code, where p99 held still. *)
let tail_candidates = [ 990; 950; 900; 750 ]

(* The highest of [tail_candidates] with at least ten samples beyond
   it; [None] under forty samples, where that percentile would be no
   tail. *)
let tail_permille n =
  if n < 40 then None
  else List.find_opt (fun pm -> beyond ~permille:pm n >= 10) tail_candidates

let permille_label pm =
  if pm mod 10 = 0 then Printf.sprintf "p%d" (pm / 10)
  else Printf.sprintf "p%d.%d" (pm / 10) (pm mod 10)

(* Words the OCaml runtime has allocated, over every domain. [Gc.minor]
   first makes each running domain publish its counters; domains that
   have terminated are already folded in. *)
let allocated_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let bytes_per_word = float_of_int (Sys.word_size / 8)

(* The process's resident high-water mark (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "Stats.peak_rss_mb: no VmHWM line"
      in
      scan ())
