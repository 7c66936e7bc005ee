(* Lazy subset construction over the NBVA bit-parallel plan.  See the
   interface for the contract; the invariants that make it safe:

   - [sets] rows are captured from activation words that the kernel
     itself normalised, so they carry no stray bits past the automaton
     width and compare (and write back) exactly.
   - A cursor index is trusted only after comparing its interned row
     against the live activation words (nwords compares, usually one).
     Any external mutation — restore, rollback re-execution, fault
     injection, a flush that recycled the slot — fails the compare and
     the step re-interns the live set instead.  No generation counters.
   - The hot path (row hit) does no hashing, allocates nothing, and
     touches no checked accessor: the activation words are addressed
     through the raw arena slice {!Nbva.active_slice} captured at
     {!attach} — one transition load, an nwords store, one boolean
     array read.  Misses run the ordinary bit-parallel kernel on a
     private scratch state and intern its result.
   - [accepts] is evaluated with {!Nbva.reports} on the interned set,
     which is exactly the [next AND final] test {!Nbva.step} returns, so
     hits agree bit-for-bit with NFA stepping. *)

type t = {
  nbva : Nbva.t;
  nwords : int;
  max_states : int;
  max_flushes : int;
  mutable n_states : int;
  sets : int array;  (* max_states rows of nwords packed activation words *)
  trans : int array array;  (* 256-entry rows, lazily allocated, -1 = unfilled *)
  accepts : bool array;
  tbl : (string, int) Hashtbl.t;
  scratch : Nbva.run_state;  (* private state the fill kernel runs on *)
  sw : int array;  (* scratch activation slice *)
  soff : int;
  cur_set : int array;  (* staging row for intern *)
  key_buf : Bytes.t;
  mutable n_fills : int;
  mutable n_flushes : int;
  mutable blown : bool;
}

type run = {
  d : t;
  rs : Nbva.run_state;
  w : int array;  (* the engine state's activation slice *)
  off : int;
  mutable cur : int; (* -1 = unsynced *)
}

let default_cache_states = 512

(* Eligibility is the per-pattern DFA-vs-NFA choice of arXiv 2210.10077,
   judged on the automaton alone: small NFAs determinise without blowup
   and win on per-symbol work; large ones risk subset blowup and would
   thrash the bounded cache. *)
let state_budget = 64

let create ?max_states ?(max_flushes = 4) nbva =
  if Nbva.num_bv_stes nbva > 0 || Nbva.num_states nbva > state_budget then None
  else
    let max_states =
      match Sys.getenv_opt "RAP_DFA_CACHE" with
      | Some s -> ( match int_of_string_opt s with Some v -> max 2 v | None -> default_cache_states)
      | None -> ( match max_states with Some v -> max 2 v | None -> default_cache_states)
    in
    let nwords = Bitvec.words_for (Nbva.num_states nbva) in
    let scratch = Nbva.start nbva in
    let sw, soff = Nbva.active_slice scratch in
    Some
      {
        nbva;
        nwords;
        max_states;
        max_flushes;
        n_states = 0;
        sets = Array.make (max_states * nwords) 0;
        trans = Array.make max_states [||];
        accepts = Array.make max_states false;
        tbl = Hashtbl.create (2 * max_states);
        scratch;
        sw;
        soff;
        cur_set = Array.make nwords 0;
        key_buf = Bytes.create (nwords * 8);
        n_fills = 0;
        n_flushes = 0;
        blown = false;
      }

let attach d rs =
  let w, off = Nbva.active_slice rs in
  { d; rs; w; off; cur = -1 }

let cache r = r.d
let invalidate r = r.cur <- -1
let cached_states d = d.n_states
let fills d = d.n_fills
let flushes d = d.n_flushes
let disabled d = d.blown

let flush d =
  Hashtbl.reset d.tbl;
  d.n_states <- 0

let reset d =
  flush d;
  d.n_flushes <- 0;
  d.blown <- false

(* True iff interned row [idx] equals the live activation words. *)
let set_matches d idx r =
  let base = idx * d.nwords in
  let ok = ref true in
  for i = 0 to d.nwords - 1 do
    if Array.unsafe_get r.w (r.off + i) <> Array.unsafe_get d.sets (base + i) then ok := false
  done;
  !ok

let load_cur_set d r =
  for i = 0 to d.nwords - 1 do
    d.cur_set.(i) <- Array.unsafe_get r.w (r.off + i)
  done

(* Intern [cur_set]; returns the state index, or -1 after an overflow
   (which flushes the cache, or permanently disables it once the flush
   budget is spent — the caller then falls back to plain NFA stepping
   for this symbol and resyncs on the next one). *)
let intern d =
  for i = 0 to d.nwords - 1 do
    Bytes.set_int64_le d.key_buf (i * 8) (Int64.of_int d.cur_set.(i))
  done;
  let key = Bytes.to_string d.key_buf in
  match Hashtbl.find_opt d.tbl key with
  | Some id -> id
  | None ->
      if d.n_states >= d.max_states then begin
        if d.n_flushes >= d.max_flushes then d.blown <- true
        else begin
          d.n_flushes <- d.n_flushes + 1;
          flush d
        end;
        -1
      end
      else begin
        let id = d.n_states in
        d.n_states <- id + 1;
        Array.blit d.cur_set 0 d.sets (id * d.nwords) d.nwords;
        if Array.length d.trans.(id) = 0 then d.trans.(id) <- Array.make 256 (-1)
        else Array.fill d.trans.(id) 0 256 (-1);
        (* accepts = set AND final <> 0, evaluated by the plan itself *)
        for i = 0 to d.nwords - 1 do
          Array.unsafe_set d.sw (d.soff + i) d.cur_set.(i)
        done;
        d.accepts.(id) <- Nbva.reports d.nbva d.scratch > 0;
        Hashtbl.replace d.tbl key id;
        id
      end

(* The miss path, out of line so [step] compiles to the hit path plus
   one call.  Runs the bit-parallel kernel from the interned set on the
   scratch state, adopts its result as the truth, interns it, and fills
   the transition slot — unless the intern overflowed (slot indices are
   stale after a flush, so nothing is written then). *)
let fill r cur c =
  let d = r.d in
  let base = cur * d.nwords in
  for i = 0 to d.nwords - 1 do
    Array.unsafe_set d.sw (d.soff + i) (Array.unsafe_get d.sets (base + i))
  done;
  let hit = Nbva.step d.nbva d.scratch c in
  for i = 0 to d.nwords - 1 do
    let x = Array.unsafe_get d.sw (d.soff + i) in
    d.cur_set.(i) <- x;
    Array.unsafe_set r.w (r.off + i) x
  done;
  d.n_fills <- d.n_fills + 1;
  let id = intern d in
  if id >= 0 then begin
    d.trans.(cur).(Char.code c) <- id;
    r.cur <- id
  end
  else r.cur <- -1;
  hit

let step r c =
  let d = r.d in
  if d.blown then Nbva.step d.nbva r.rs c
  else begin
    let cur =
      if r.cur >= 0 && r.cur < d.n_states && set_matches d r.cur r then r.cur
      else begin
        load_cur_set d r;
        intern d
      end
    in
    if cur < 0 then begin
      r.cur <- -1;
      Nbva.step d.nbva r.rs c
    end
    else
      let nxt = Array.unsafe_get (Array.unsafe_get d.trans cur) (Char.code c) in
      if nxt >= 0 then begin
        let base = nxt * d.nwords in
        for i = 0 to d.nwords - 1 do
          Array.unsafe_set r.w (r.off + i) (Array.unsafe_get d.sets (base + i))
        done;
        r.cur <- nxt;
        Array.unsafe_get d.accepts nxt
      end
      else fill r cur c
  end
