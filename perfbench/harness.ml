(* Measurement plumbing shared by every workload: host clock, GC readings,
   order statistics, the correctness-check ledger, harness-owned spans and
   the result printer. Nothing here touches the simulator. *)

let now = Unix.gettimeofday

(* Allocation readings for a unit come from [Gc.quick_stat], which folds
   in the counters of every domain that has been joined; [Gc.minor_words]
   alone counts only the calling domain and would miss fleet workers. But
   [quick_stat] sees the calling domain's allocations only up to its last
   minor collection, so [gc] empties the minor heap first: call it outside
   timed regions. *)
type gc = { minor : float; promoted : float }

let gc () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words; promoted = s.Gc.promoted_words }

let words_per_mb = float_of_int (1 lsl 20 / (Sys.word_size / 8))

(* Live words after a full major collection. *)
let live_words () =
  Gc.full_major ();
  float_of_int (Gc.quick_stat ()).Gc.live_words

(* ---- order statistics ---------------------------------------------- *)

(* Linear interpolation between closest ranks, like numpy's default. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let sum xs = List.fold_left ( +. ) 0.0 xs

(* ---- correctness checks --------------------------------------------- *)

(* Every check the benchmark makes lands here. A digest mismatch, a failed
   conservation check and an exception raised by the simulator all count
   as one failed check; none of them aborts the run. *)
type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** newest first *)
}

let checks () = { attempted = 0; failed = 0; failures = [] }

let check c ~what ok =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    c.failures <- what :: c.failures
  end

(* Run [f]; an exception becomes one failed check and [None]. *)
let guard c ~what f =
  match f () with
  | v -> Some v
  | exception e ->
      check c ~what:(what ^ ": " ^ Printexc.to_string e) false;
      None

let merge_checks into c =
  into.attempted <- into.attempted + c.attempted;
  into.failed <- into.failed + c.failed;
  into.failures <- c.failures @ into.failures

let fail_ratio c =
  if c.attempted = 0 then 0.0
  else float_of_int c.failed /. float_of_int c.attempted

(* A workload's simulated results are deterministic in its seed, so every
   repetition inside a run must produce the same digest. The reference is
   the digest recorded for this seed when there is one, and otherwise the
   first repetition's, which then only proves repeatability. *)
type digest = { what : string; mutable expected : string option }

let digest ~what ~recorded = { what; expected = recorded }

let check_digest c d actual =
  match d.expected with
  | None -> d.expected <- Some actual
  | Some e ->
      check c
        ~what:(Printf.sprintf "%s digest %s, expected %s" d.what actual e)
        (String.equal e actual)

(* [perfbench/expected_digests.txt]: one [workload seed md5-hex] per line,
   [#] starts a comment. *)
let load_digests path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ w; s; d ] when w.[0] <> '#' ->
             Option.map (fun s -> ((w, s), d)) (int_of_string_opt s)
         | _ -> None)

(* ---- spans ---------------------------------------------------------- *)

(* Spans are recorded only in the traced run, around the benchmark's own
   calls into each layer; nothing inside the libraries is instrumented.
   [layer] groups spans for the self-time report. *)
type span = {
  sp_id : int;
  sp_parent : int;  (** -1 for a root span *)
  sp_name : string;
  sp_layer : string;
  sp_t0 : float;
  sp_t1 : float;
  sp_words : float;
      (** minor words the calling domain allocated inside the span *)
}

let tracing = ref false
let run_id = ref ""
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let span ~layer name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let w0 = Gc.minor_words () and t0 = now () in
    let close () =
      let t1 = now () and w1 = Gc.minor_words () in
      stack := List.tl !stack;
      recorded :=
        {
          sp_id = id;
          sp_parent = parent;
          sp_name = name;
          sp_layer = layer;
          sp_t0 = t0;
          sp_t1 = t1;
          sp_words = w1 -. w0;
        }
        :: !recorded
    in
    Fun.protect ~finally:close f
  end

(* Self time: a span's duration minus the part covered by its children
   (children never overlap: the benchmark is a single closed loop). *)
let self_ms_by_layer spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        let cur =
          Option.value ~default:0.0 (Hashtbl.find_opt child s.sp_parent)
        in
        Hashtbl.replace child s.sp_parent (cur +. (s.sp_t1 -. s.sp_t0)))
    spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt child s.sp_id) in
      let self = s.sp_t1 -. s.sp_t0 -. covered in
      let cur = Option.value ~default:0.0 (Hashtbl.find_opt by_layer s.sp_layer) in
      Hashtbl.replace by_layer s.sp_layer (cur +. (self *. 1e3)))
    spans;
  by_layer

(* ---- forked units ------------------------------------------------- *)

let child_top_heap_words = ref 0

let peak_heap_mb () =
  float_of_int (max !child_top_heap_words (Gc.quick_stat ()).Gc.top_heap_words)
  /. words_per_mb

(* Run [f] in a forked child and return its result, marshalled back over
   a pipe, together with the spans it recorded and its heap peak. The
   child starts from this process's state at the fork, so every call sees
   the same initial process state, as separate command-line runs do.
   OCaml refuses to fork once a domain has been spawned, so forked units
   must run before anything that spawns domains. *)
let in_child f =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      recorded := [];
      let res =
        match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc
        (res, !recorded, !next_id, (Gc.quick_stat ()).Gc.top_heap_words)
        [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let got = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match got with
      | Some (res, spans, nid, top) ->
          recorded := spans @ !recorded;
          next_id := nid;
          child_top_heap_words := max !child_top_heap_words top;
          res
      | None -> Error "child process ended without a result")

(* ---- JSON ----------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let write_spans path ~provenance spans =
  let oc = open_out path in
  Printf.fprintf oc "{\"provenance\": %s,\n \"spans\": [" provenance;
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n  {\"run\": %s, \"id\": %d, \"parent\": %d, \"name\": %s, \
         \"layer\": %s, \"start_s\": %s, \"end_s\": %s, \"minor_words\": %s}"
        (if i = 0 then "" else ",")
        (json_string !run_id) s.sp_id s.sp_parent (json_string s.sp_name)
        (json_string s.sp_layer) (json_float s.sp_t0) (json_float s.sp_t1)
        (json_float s.sp_words))
    (List.sort (fun a b -> compare a.sp_id b.sp_id) spans);
  output_string oc "\n]}\n";
  close_out oc

(* ---- results -------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* The last line of standard output, read by whoever runs the benchmark. *)
let result_line c metrics =
  let body =
    List.map
      (fun x ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
          (json_float x.value) (json_string x.unit_))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (c.failed = 0) c.attempted c.failed (String.concat ", " body)
