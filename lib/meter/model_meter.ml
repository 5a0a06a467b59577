open Psbox_engine

type t = { intercept : float; coeffs : float array }

let intercept m = m.intercept
let coeffs m = m.coeffs

let predict m utils =
  if Array.length utils <> Array.length m.coeffs then
    invalid_arg "Model_meter.predict: dimension mismatch";
  let acc = ref m.intercept in
  Array.iteri (fun i u -> acc := !acc +. (m.coeffs.(i) *. u)) utils;
  !acc

let fit observations =
  match observations with
  | [] -> invalid_arg "Model_meter.fit: no observations"
  | (u0, _) :: _ ->
      let dim = Array.length u0 in
      if List.length observations < dim + 1 then
        invalid_arg "Model_meter.fit: not enough observations";
      List.iter
        (fun (u, _) ->
          if Array.length u <> dim then
            invalid_arg "Model_meter.fit: inconsistent dimensions")
        observations;
      (* Augment with a constant regressor for the intercept:
         normal equations (X'X) beta = X'y with X rows [1; u...]. *)
      let d = dim + 1 in
      let xtx = Array.make_matrix d d 0.0 in
      let xty = Array.make d 0.0 in
      List.iter
        (fun (u, y) ->
          let row = Array.make d 1.0 in
          Array.blit u 0 row 1 dim;
          for i = 0 to d - 1 do
            xty.(i) <- xty.(i) +. (row.(i) *. y);
            for j = 0 to d - 1 do
              xtx.(i).(j) <- xtx.(i).(j) +. (row.(i) *. row.(j))
            done
          done)
        observations;
      let beta = Stats.solve ~min_pivot:1e-12 xtx xty in
      { intercept = beta.(0); coeffs = Array.sub beta 1 dim }

(* ------------------------------------------------------------------ *)
(* Bus-fed training-set collection: snapshot the utilization vector at
   every announced power transition, paired with the new total draw.
   Replaces the old style of polling utilizations on a timer and lining
   them up with captured samples by timestamp. *)

type collector = {
  utils : unit -> float array;
  mutable total_w : float;
  mutable obs : (float array * float) list; (* newest first *)
  mutable sub : Bus.subscription option;
}

let collector bus ~initial_w ~utils =
  let c = { utils; total_w = initial_w; obs = []; sub = None } in
  c.sub <-
    Some
      (Bus.subscribe bus (fun tr ->
           let open Psbox_hw.Power_rail in
           c.total_w <- c.total_w +. tr.after_w -. tr.before_w;
           c.obs <- (c.utils (), c.total_w) :: c.obs));
  c

let observations c = List.rev c.obs
let observation_count c = List.length c.obs

let collector_detach c =
  match c.sub with
  | Some s ->
      Bus.unsubscribe s;
      c.sub <- None
  | None -> ()

let fit_collected c = fit (List.rev c.obs)

let rmse m observations =
  match observations with
  | [] -> 0.0
  | _ ->
      let acc =
        List.fold_left
          (fun acc (u, y) ->
            let e = predict m u -. y in
            acc +. (e *. e))
          0.0 observations
      in
      sqrt (acc /. float_of_int (List.length observations))
