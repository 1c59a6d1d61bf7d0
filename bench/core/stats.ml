(* Order statistics over samples.  Latency percentiles use the
   nearest-rank definition (every reported value is an observed sample);
   the quartiles [compare] prints use the same exclusive interpolation as
   Python's [statistics.quantiles(values, n=4)], so run-to-run spreads
   read the same here as in any external check of the numbers. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* 1-based rank of the nearest-rank [p]th percentile of [n] samples. *)
let rank p n =
  if n < 1 then invalid_arg "Stats.rank: no samples";
  max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float_of_int n))))

let percentile p xs =
  let a = sorted xs in
  a.(rank p (Array.length a) - 1)

(* Samples strictly above the nearest-rank [p]th percentile.  A tail
   percentile is only reported as such when at least ten samples lie
   beyond it; fewer, and one outlier moves it. *)
let beyond p n = n - rank p n
let tail_ok p n = beyond p n >= 10

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [statistics.quantiles(xs, n=4)] (method "exclusive"): (q1, q2, q3). *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no samples";
  if n = 1 then (a.(0), a.(0), a.(0))
  else begin
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)
  end

(* Interquartile distance as a share of the median. *)
let rel_spread xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs m
