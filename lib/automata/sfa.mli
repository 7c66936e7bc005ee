(** Simultaneous-FA chunk transfer functions (Sin'ya & Matsuzaki,
    arXiv 1405.0562, adapted to RAP's word-packed kernels).

    To run one stream's chunks in parallel, each chunk is executed not
    from {e the} current state (unknown until every earlier chunk
    finishes) but from {e all} basis states at once: a chunk becomes a
    boolean transfer matrix over the packed state word.  Both word
    kernels step as [act' = (inject ∨ succ(act)) ∧ L\[c\]], which is
    {e affine} in the state — so a chunk's effect factors into

    - [b], the state reached from the empty start state {e with}
      per-symbol initial injection (the executor produces this for free
      by just running the chunk from scratch), and
    - one homogeneous row per basis state [q], stepped {e without}
      injection ([row' = succ(row) ∧ L\[c\]]; for Shift-And,
      [row' = ((row << 1) ∧ widthmask) ∧ L\[c\]]).

    Composition is then [state_out = b ∨ ⋁_{q ∈ state_in} rows\[q\]]
    ({!apply}) — associative, so chunks fold left-to-right in O(states)
    word ops per boundary while the per-symbol work ran in parallel.

    Only single-word state spaces are supported (≤ {!Bitvec.bits_per_word}
    states): that covers every NFA/LNFA tile the mapper emits, keeps a
    whole matrix in [n] ints, and keeps row updates branch-free.  BV-STE
    automata are excluded structurally — a bit-vector is mutable per-run
    state, not a function of the start set — and compose by checkpoint
    speculation instead (see [Exec.run_chunks]). *)

type tables =
  | Linear of { n : int; labels : int array; succ : int array }
      (** NBVA-style: per-byte label masks and per-state successor
          masks, as exported by [Nbva.word_tables]. *)
  | Shift of { width : int; labels : int array }
      (** Shift-And: the transition is the shift itself, plus per-byte
          label masks, as exported by [Shift_and.word_tables]. *)

val linear : n:int -> labels:int array -> succ:int array -> tables
(** Validated constructor: [labels] has 256 entries, [succ] has [n],
    [0 <= n <= Bitvec.bits_per_word].  Raises [Invalid_argument]. *)

val shift : width:int -> labels:int array -> tables
(** Validated constructor: [labels] has 256 entries,
    [1 <= width <= Bitvec.bits_per_word].  Raises [Invalid_argument]. *)

type xfer
(** A chunk's transfer matrix under construction: identity at
    {!start}, one {!feed} per symbol. *)

val start : tables -> xfer
(** The identity transfer (empty chunk): [rows.(q) = {q}]. *)

val feed : xfer -> char -> unit
(** Advance every row by one symbol ({e without} initial injection —
    the inject part lives in [b]).  O(live rows) word ops; a matrix
    whose rows have all died is skipped entirely. *)

val apply : xfer -> b:int -> int -> int
(** [apply x ~b state_in] is [b ∨ ⋁_{q ∈ state_in} rows\[q\]] — the
    state after the chunk given the state before it, where [b] is the
    word reached by running the chunk from the empty state with
    injection. *)
