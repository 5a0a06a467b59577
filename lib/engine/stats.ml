let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan else sum xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (acc /. float_of_int (n - 1))
  end

let min xs = Array.fold_left Float.min Float.infinity xs
let max xs = Array.fold_left Float.max Float.neg_infinity xs

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median xs = percentile xs 50.0

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

let summarize xs =
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = min xs;
    p50 = percentile xs 50.0;
    p95 = percentile xs 95.0;
    p99 = percentile xs 99.0;
    max = max xs;
  }

type histogram = { lo : float; hi : float; counts : int array }

let histogram xs ~bins =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if Array.length xs = 0 then invalid_arg "Stats.histogram: empty input";
  let lo = min xs and hi = max xs in
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  Array.iter
    (fun x ->
      let i =
        if width = 0.0 then 0
        else Stdlib.min (bins - 1) (int_of_float ((x -. lo) /. width))
      in
      counts.(i) <- counts.(i) + 1)
    xs;
  { lo; hi; counts }

(* Gaussian elimination with partial pivoting; mutates its arguments. *)
let solve ~min_pivot a b =
  let n = Array.length b in
  for col = 0 to n - 1 do
    let pivot = ref col in
    for row = col + 1 to n - 1 do
      if Float.abs a.(row).(col) > Float.abs a.(!pivot).(col) then pivot := row
    done;
    if Float.abs a.(!pivot).(col) < min_pivot then
      invalid_arg
        (Printf.sprintf
           "Stats.solve: singular system (column %d pivot below %g)" col
           min_pivot);
    if !pivot <> col then begin
      let tmp = a.(col) in
      a.(col) <- a.(!pivot);
      a.(!pivot) <- tmp;
      let tmp = b.(col) in
      b.(col) <- b.(!pivot);
      b.(!pivot) <- tmp
    end;
    for row = col + 1 to n - 1 do
      let f = a.(row).(col) /. a.(col).(col) in
      for k = col to n - 1 do
        a.(row).(k) <- a.(row).(k) -. (f *. a.(col).(k))
      done;
      b.(row) <- b.(row) -. (f *. b.(col))
    done
  done;
  let x = Array.make n 0.0 in
  for row = n - 1 downto 0 do
    let acc = ref b.(row) in
    for k = row + 1 to n - 1 do
      acc := !acc -. (a.(row).(k) *. x.(k))
    done;
    x.(row) <- !acc /. a.(row).(row)
  done;
  x
