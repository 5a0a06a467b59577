(* How a result was produced: enough to rerun it and to judge whether two
   results are comparable. Host capabilities are reported as observed
   state, never as a reason to refuse to run. *)

let nproc = Domain.recommended_domain_count ()

let read_file path =
  try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
  with Sys_error _ -> None

(* Read the revision straight from [.git] so no process is started; a
   source checkout without [.git] has no revision to report. *)
let git_rev () =
  match read_file ".git/HEAD" with
  | None -> None
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" ref_) with
      | Some rev -> Some rev
      | None ->
          Option.bind (read_file ".git/packed-refs") (fun packed ->
              String.split_on_char '\n' packed
              |> List.find_map (fun line ->
                     match String.split_on_char ' ' line with
                     | [ rev; r ] when r = ref_ -> Some rev
                     | _ -> None)))
  | Some rev -> Some rev

let notes =
  if nproc = 1 then [ "fleet.scaling_efficiency not meaningful on 1 CPU" ]
  else []

(* The fleet runs [nproc] domains; nothing else spawns any. *)
let json ~workload ~seed ~seconds ~trace =
  let module Sim = Psbox_engine.Sim in
  let s = Harness.json_string in
  Printf.sprintf
    "{\"git_rev\": %s, \"workload\": %s, \"seed\": %d, \"seconds\": %d, \
     \"trace\": %b, \"nproc\": %d, \"domains\": %d, \"ocaml\": %s, \
     \"word_size\": %d, \"sim_backend\": %s, \"sim_pooling\": %b, \
     \"command\": [%s], \"notes\": [%s]}"
    (match git_rev () with Some r -> s r | None -> "null")
    (s workload) seed seconds trace nproc nproc (s Sys.ocaml_version)
    Sys.word_size
    (s (match Sim.default_backend () with `Heap -> "heap" | `Wheel -> "wheel"))
    (Sim.default_pooling ())
    (String.concat ", " (List.map s (Array.to_list Sys.argv)))
    (String.concat ", " (List.map s notes))
