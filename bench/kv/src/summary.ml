(** Order statistics: per-run latency percentiles and run-to-run spread.

    Percentiles are nearest-rank over the exact samples.  A percentile is
    only reported when at least ten samples lie beyond it; percentiles
    are given in permyriad (9900 = p99) so the rank arithmetic is exact. *)

let sort (a : int array) =
  let b = Array.copy a in
  Array.sort compare b;
  b

(** 1-based nearest rank of permyriad [p] among [n] samples. *)
let rank n p = ((p * n) + 9999) / 10000

(** Nearest-rank percentile [p] (permyriad) of an ascending array; 0 for
    no samples. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(max 0 (min (n - 1) (rank n p - 1)))

let beyond n p = n - rank n p
let supports n p = beyond n p >= 10

(** Highest percentile of {p50, p90, p99, p99.9, p99.99} that [n] samples
    support, if any. *)
let highest_supported n =
  List.find_opt (supports n) [ 9999; 9990; 9900; 9000; 5000 ]

let pct_name p =
  if p mod 100 = 0 then Printf.sprintf "p%d" (p / 100)
  else
    let s = Printf.sprintf "%.2f" (float_of_int p /. 100.) in
    let s =
      if String.ends_with ~suffix:"0" s then String.sub s 0 (String.length s - 1)
      else s
    in
    "p" ^ s

let mean (a : int array) =
  if Array.length a = 0 then 0.
  else
    float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int (Array.length a)

(** Median as Python's [statistics.median]: the mean of the middle two of
    an even count. *)
let median (xs : float list) =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.median: no values"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** First and third quartile as Python's
    [statistics.quantiles(values, n=4)] (the default "exclusive" method). *)
let quartiles (xs : float list) =
  let a = Array.of_list xs in
  Array.sort compare a;
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Summary.quartiles: need two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 3)

(** Interquartile range as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. median xs
