(* Order statistics over samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks ([q] in [0, 1]). *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The highest of a fixed ladder of percentiles that still has at least
   ten samples beyond it, as [(percentile, value)]. A fixed ladder (rather
   than rank n-11) keeps the reported percentile the same across runs whose
   sample counts differ a little. With fewer than 20 samples there is no
   such percentile above the median, and the median is returned. *)
let ladder = [ 99.9; 99.; 95.; 90.; 75. ]

let tail xs =
  let n = float_of_int (List.length xs) in
  match List.find_opt (fun p -> n *. (1. -. (p /. 100.)) >= 10.) ladder with
  | Some p -> (p, quantile xs (p /. 100.))
  | None -> (50., median xs)
