type t = {
  labels : Charclass.t array;
  succs : int array array;
  preds : int array array;
  initial : bool array;
  finals : bool array;
  accepts_empty : bool;
}

let num_states t = Array.length t.labels
let num_edges t = Array.fold_left (fun acc s -> acc + Array.length s) 0 t.succs

let make ~labels ~edges ~initial ~finals ~accepts_empty =
  let n = Array.length labels in
  let check q = if q < 0 || q >= n then invalid_arg "Nfa.make: state out of range" in
  List.iter
    (fun (p, q) ->
      check p;
      check q)
    edges;
  List.iter check initial;
  List.iter check finals;
  let succ_lists = Array.make n [] and pred_lists = Array.make n [] in
  List.iter
    (fun (p, q) ->
      succ_lists.(p) <- q :: succ_lists.(p);
      pred_lists.(q) <- p :: pred_lists.(q))
    edges;
  let finish l = Array.of_list (List.sort_uniq compare l) in
  let initial_arr = Array.make n false and final_arr = Array.make n false in
  List.iter (fun q -> initial_arr.(q) <- true) initial;
  List.iter (fun q -> final_arr.(q) <- true) finals;
  {
    labels;
    succs = Array.map finish succ_lists;
    preds = Array.map finish pred_lists;
    initial = initial_arr;
    finals = final_arr;
    accepts_empty;
  }

let line labels =
  let n = Array.length labels in
  if n = 0 then invalid_arg "Nfa.line: empty line";
  let edges = List.init (n - 1) (fun i -> (i, i + 1)) in
  make ~labels ~edges ~initial:[ 0 ] ~finals:[ n - 1 ] ~accepts_empty:false

type run = { match_ends : int list; active_per_step : int array }

(* Active/next state sets live as packed bit vectors in one arena, so the
   stepper's whole mutable surface is a contiguous word range: a session
   snapshot is one blit, and a caller can pack many steppers into one
   shared pool via [?arena]. *)
type stepper = {
  st_active : Bitvec.t;
  st_next : Bitvec.t;
  st_anchored : bool;
  mutable st_pos : int;
  mutable st_count : int;
}

let stepper_words t = 2 * Bitvec.words_for (num_states t)

let stepper ?(anchored_start = false) ?arena t =
  let n = num_states t in
  let arena =
    match arena with Some a -> a | None -> Arena.create ~capacity:(stepper_words t)
  in
  {
    st_active = Bitvec.alloc_in arena n;
    st_next = Bitvec.alloc_in arena n;
    st_anchored = anchored_start;
    st_pos = 0;
    st_count = 0;
  }

let stepper_step t s c =
  let n = num_states t in
  Bitvec.clear s.st_next;
  let count = ref 0 and hit = ref false in
  for q = 0 to n - 1 do
    if Charclass.mem t.labels.(q) c then begin
      let avail =
        (t.initial.(q) && ((not s.st_anchored) || s.st_pos = 0))
        || Array.exists (fun j -> Bitvec.get s.st_active j) t.preds.(q)
      in
      if avail then begin
        Bitvec.set s.st_next q;
        incr count;
        if t.finals.(q) then hit := true
      end
    end
  done;
  Bitvec.blit ~src:s.st_next ~dst:s.st_active;
  s.st_pos <- s.st_pos + 1;
  s.st_count <- !count;
  !hit

let run ?anchored_start t input =
  let s = stepper ?anchored_start t in
  let len = String.length input in
  let activity = Array.make len 0 in
  let matches = ref [] in
  for p = 0 to len - 1 do
    if stepper_step t s input.[p] then matches := p :: !matches;
    activity.(p) <- s.st_count
  done;
  { match_ends = List.rev !matches; active_per_step = activity }

let match_ends ?anchored_start t input = (run ?anchored_start t input).match_ends

let count_matches ?anchored_start t input =
  List.length (match_ends ?anchored_start t input)

let matches ?anchored_start t input = match_ends ?anchored_start t input <> []

let is_linear t =
  let n = num_states t in
  let initials = ref [] in
  for q = 0 to n - 1 do
    if t.initial.(q) then initials := q :: !initials
  done;
  match !initials with
  | [ q0 ] when Array.length t.preds.(q0) = 0 ->
      (* walk the unique successor chain, requiring in/out degree <= 1 *)
      let order = Array.make n (-1) in
      let visited = Array.make n false in
      let rec walk q i =
        order.(i) <- q;
        visited.(q) <- true;
        match t.succs.(q) with
        | [||] -> Some (i + 1)
        | [| q' |] ->
            if visited.(q') || Array.length t.preds.(q') <> 1 then None else walk q' (i + 1)
        | _ -> None
      in
      (match walk q0 0 with
      | Some len when len = n -> Some order
      | Some _ | None -> None)
  | _ -> None

let pp fmt t =
  let n = num_states t in
  Format.fprintf fmt "@[<v>NFA with %d states:@," n;
  for q = 0 to n - 1 do
    Format.fprintf fmt "  q%d%s%s: %a -> [%s]@," q
      (if t.initial.(q) then "(i)" else "")
      (if t.finals.(q) then "(f)" else "")
      Charclass.pp t.labels.(q)
      (String.concat "," (Array.to_list (Array.map string_of_int t.succs.(q))))
  done;
  Format.fprintf fmt "@]"
