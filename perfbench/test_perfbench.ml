(* The benchmark's own checks must count a wrong result as a failed check,
   not pass it and not crash: a corrupted expected digest, and an
   exception raised inside a measured unit. *)

open Perfbench
module H = Harness
module W = Workloads

let episode ~d c =
  let models, _ = W.isolated (fun () -> W.calibrate ~seed:5) in
  ignore (W.soak_episode ~length:4 ~d ~seed:5 ~models W.all_observers c)

let () =
  (* a clean episode: the digest it records becomes the expected one *)
  let good = H.digest ~what:"soak" ~recorded:None in
  let c = H.checks () in
  episode ~d:good c;
  assert (c.failed = 0);
  assert (c.attempted >= 1);
  let expected = Option.get good.expected in
  (* the same episode again reproduces it *)
  let c = H.checks () in
  episode ~d:(H.digest ~what:"soak" ~recorded:(Some expected)) c;
  assert (c.failed = 0);
  (* a corrupted expected digest is one failed check *)
  let corrupted = String.map (fun ch -> if ch = '0' then '1' else '0') expected in
  let c = H.checks () in
  episode ~d:(H.digest ~what:"soak" ~recorded:(Some corrupted)) c;
  assert (c.failed = 1);
  assert (H.fail_ratio c > 0.0);
  (* an exception is a failed check and the run goes on *)
  let c = H.checks () in
  assert (H.guard c ~what:"raises" (fun () -> failwith "boom") = None);
  assert (c.failed = 1 && c.attempted = 1);
  print_endline "perfbench checks: ok"
