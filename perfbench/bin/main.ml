(* perfbench: run one workload of the FlexCL benchmark.

   main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints one JSON object as the last line of stdout; progress and
   reference figures go to stderr. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (predict-cold|serve-hot|dse-sweep|validate) --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match !workload with
  | None -> usage ()
  | Some workload ->
      let known (w : Perfbench.Bench.workload) = w.Perfbench.Bench.name = workload in
      if not (List.exists known Perfbench.Bench.workloads) then usage ();
      let result =
        Perfbench.Bench.run ~workload ~seed:!seed ~seconds:!seconds ~trace:!trace
      in
      print_endline (Flexcl_util.Json.to_string result)
