(** Order statistics of host-time samples. *)

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

(** [percentile xs p] is the [p]-th percentile ([0 <= p <= 100]) of
    [xs], interpolating linearly between the closest ranks. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile: p outside [0, 100]";
  let s = sorted xs in
  let r = p /. 100.0 *. float_of_int (n - 1) in
  let i = int_of_float r in
  if i >= n - 1 then s.(n - 1)
  else s.(i) +. ((r -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median xs = percentile xs 50.0

(** [quartiles xs] is [[|q1; q2; q3|]] exactly as Python's
    [statistics.quantiles(xs, n=4)] (the default exclusive method)
    computes them, so quartiles printed here match those that
    steadiness.py computes in Python. *)
let quartiles xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let s = sorted xs in
  let m = n + 1 in
  Array.init 3 (fun k ->
      let i = k + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.0)

(** [tail_percentile n] is the highest of the usual reporting
    percentiles that leaves at least ten of [n] samples beyond it, if
    any does. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (100.0 -. p) /. 100.0 >= 10.0 -. 1e-9)
    [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]
