(* See sfa.mli for the algebra; correctness argument inline below.

   Both kernels share the shape

     act' = (inject ∨ succ(act)) ∧ L[c]

   where [succ] is a bit-linear map (union of successor masks for NBVA,
   the word shift for Shift-And) and [inject] re-arms initial positions
   every symbol (unanchored matching).  Because succ and ∧L[c] both
   distribute over ∨, the state after a chunk is an affine function of
   the state before it:

     state_from(x, chunk) = b ∨ ⋁_{q ∈ x} rows[q]

   with [b] = state_from(0, chunk) (the run WITH injection from the
   empty state — the executor computes this anyway when it runs the
   chunk from scratch) and [rows[q]] = the homogeneous part, stepped
   WITHOUT injection from the singleton basis state {q}:

     row' = succ(row) ∧ L[c]

   Induction: true at the empty chunk (b = 0, rows[q] = {q}).  If it
   holds after prefix p, then after one more symbol c:

     step(b_p ∨ ⋁ rows_p[q])
       = (inject ∨ succ(b_p) ∨ ⋁ succ(rows_p[q])) ∧ L[c]
       = ((inject ∨ succ(b_p)) ∧ L[c]) ∨ ⋁ (succ(rows_p[q]) ∧ L[c])
       = b_{pc} ∨ ⋁ rows_{pc}[q].                                   ∎

   So a chunk's transfer function is one word per basis state, built in
   O(n) word ops per symbol, and applying it to an incoming state is a
   ctz scan over that state's set bits.  Rows die monotonically (a zero
   row stays zero — both succ maps send 0 to 0), so [live] lets a chunk
   whose matrix has fully died skip its per-symbol loop. *)

type tables =
  | Linear of { n : int; labels : int array; succ : int array }
  | Shift of { width : int; labels : int array }

type xfer = { tbl : tables; rows : int array; mutable live : int }

let linear ~n ~labels ~succ =
  if n < 0 || n > Bitvec.bits_per_word then invalid_arg "Sfa.linear: state count";
  if Array.length labels <> 256 then invalid_arg "Sfa.linear: labels size";
  if Array.length succ <> n then invalid_arg "Sfa.linear: succ size";
  Linear { n; labels; succ }

let shift ~width ~labels =
  if width < 1 || width > Bitvec.bits_per_word then invalid_arg "Sfa.shift: width";
  if Array.length labels <> 256 then invalid_arg "Sfa.shift: labels size";
  Shift { width; labels }

let dim = function Linear { n; _ } -> n | Shift { width; _ } -> width

let start tbl =
  let n = dim tbl in
  { tbl; rows = Array.init n (fun q -> 1 lsl q); live = n }

let feed x c =
  if x.live > 0 then begin
    let b = Char.code c in
    match x.tbl with
    | Linear { labels; succ; _ } ->
        let label = labels.(b) in
        let rows = x.rows in
        for q = 0 to Array.length rows - 1 do
          let r = rows.(q) in
          if r <> 0 then begin
            (* successor union over the row's set bits, ctz-style *)
            let acc = ref 0 and w = ref r in
            while !w <> 0 do
              acc := !acc lor succ.(Bitvec.lsb_index !w);
              w := !w land (!w - 1)
            done;
            let r' = !acc land label in
            rows.(q) <- r';
            if r' = 0 then x.live <- x.live - 1
          end
        done
    | Shift { width; labels } ->
        let label = labels.(b) in
        let mask = (1 lsl width) - 1 in
        let rows = x.rows in
        for q = 0 to Array.length rows - 1 do
          let r = rows.(q) in
          if r <> 0 then begin
            let r' = (r lsl 1) land mask land label in
            rows.(q) <- r';
            if r' = 0 then x.live <- x.live - 1
          end
        done
  end

let apply x ~b start =
  let acc = ref b and w = ref start in
  if x.live > 0 then
    while !w <> 0 do
      acc := !acc lor x.rows.(Bitvec.lsb_index !w);
      w := !w land (!w - 1)
    done;
  !acc
