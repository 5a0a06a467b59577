type model = {
  templates : (string * float array) list;
  downsample : int;
  band : int option;
}

let preprocess m trace = Dtw.znormalize (Dtw.downsample trace ~factor:m.downsample)

let train labelled ?(downsample = 50) ?band () =
  let m = { templates = []; downsample; band } in
  let templates =
    List.map (fun (label, trace) -> (label, preprocess m trace)) labelled
  in
  { m with templates }

let classify m trace =
  match m.templates with
  | [] -> invalid_arg "Attack.success_rate: empty model"
  | (l0, t0) :: rest ->
      let x = preprocess m trace in
      let d0 = Dtw.distance ?band:m.band t0 x in
      let best, _ =
        List.fold_left
          (fun (bl, bd) (l, t) ->
            let d = Dtw.distance ?band:m.band t x in
            if d < bd then (l, d) else (bl, bd))
          (l0, d0) rest
      in
      best

let success_rate m tests =
  match tests with
  | [] -> 0.0
  | _ ->
      let hits =
        List.fold_left
          (fun acc (label, trace) ->
            if classify m trace = label then acc + 1 else acc)
          0 tests
      in
      float_of_int hits /. float_of_int (List.length tests)
