(* Timing, quantiles and the result line. *)

let now = Unix.gettimeofday
let arch = Rap.rap_arch ()
let params = Program.default_params

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolated quantile of a sample (q in [0, 1]). *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let mib_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.

(* One named value of the result line. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number x =
  if Float.is_nan x then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf {|%S: {"value": %s, "unit": %S}|} name (json_number value) unit_)
      metrics
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed (String.concat ", " fields)

let note fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt
