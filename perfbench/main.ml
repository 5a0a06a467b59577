(* perfbench: the simulator's benchmark.

   bash perfbench/run.sh --workload paper|fleet|soak|all --seed N
     --seconds S --trace 0|1

   Prints the provenance, every metric as "name value unit", the digests,
   and as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md. *)

open Perfbench
module H = Harness

let usage =
  "perfbench --workload paper|fleet|soak|all --seed N --seconds S --trace 0|1\n\
   (--workload all takes --trace 0 only)"

let digests_file = "perfbench/expected_digests.txt"

let print_metrics ms =
  List.iter
    (fun (x : H.metric) -> Printf.printf "  %-40s %.6g %s\n" x.name x.value x.unit_)
    ms

(* One workload, end to end (trace 0) or through the layer ledger
   (trace 1). Returns the metrics for the result line. *)
let run_one ~recorded ~seed ~seconds ~trace c name =
  let d =
    H.digest ~what:name ~recorded:(List.assoc_opt (name, seed) recorded)
  in
  let metrics =
    if trace then Layers.run ~workload:name ~seed ~seconds c d
    else Workloads.run_workload name ~seed ~seconds c d
  in
  Printf.printf "%s (seed %d):\n" name seed;
  print_metrics metrics;
  Printf.printf "  %-40s %.6g ratio\n" "fail_ratio" (H.fail_ratio c);
  (match d.expected with
  | Some e ->
      Printf.printf "  digest %s %d %s (%s)\n" name seed e
        (if List.mem_assoc (name, seed) recorded then "recorded"
         else "no recorded digest for this seed")
  | None -> ());
  metrics

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "paper|fleet|soak|all");
      ("--seed", Arg.Set_int seed, "N  workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S  how long to measure");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end or per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let names =
    if !workload = "all" then Workloads.names else [ !workload ]
  in
  if
    (not (List.for_all (fun n -> List.mem n Workloads.names) names))
    || !seed < 0 || !seconds < 1
    || (!trace <> 0 && !trace <> 1)
    (* a traced run forks paper passes before it spawns domains, which one
       process can do only once *)
    || (!workload = "all" && !trace = 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  if not (Sys.file_exists digests_file) then begin
    Printf.eprintf "perfbench: %s not found; run from the repository root\n"
      digests_file;
    exit 2
  end;
  let recorded = H.load_digests digests_file in
  let trace = !trace = 1 in
  print_endline
    ("provenance: "
    ^ Provenance.json ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace);
  let c = H.checks () in
  let metrics =
    match names with
    | [ name ] -> run_one ~recorded ~seed:!seed ~seconds:(float !seconds) ~trace c name
    | names ->
        List.concat_map
          (fun name ->
            run_one ~recorded ~seed:!seed ~seconds:(float !seconds) ~trace c name
            |> List.map (fun (x : H.metric) -> { x with name = name ^ "." ^ x.name }))
          names
  in
  List.iter (Printf.printf "  failed check: %s\n") (List.rev c.failures);
  print_endline (H.result_line c metrics)
