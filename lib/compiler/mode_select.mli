(** Mode decision graph (paper Fig 9) and per-regex compilation driver.

    The decision, per regex:
    + If it carries a bounded repetition that survives the unfolding
      rewriting (a single-class repetition with a bound at or above the
      unfolding threshold), it benefits from bit vectors: {b NBVA} mode.
    + Otherwise, if it rewrites into lines within the 2x state budget
      (§4.2): {b LNFA} mode.
    + Otherwise: {b NFA} mode.

    [compile_as] bypasses the decision to force a mode — the mode-vs-mode
    comparisons of Tables 2 and 3 run the same regexes in both their chosen
    mode and NFA mode. *)

type mode = Nfa_mode | Nbva_mode | Lnfa_mode

val mode_names : mode -> string
val decide : params:Program.params -> Ast.t -> mode

val compile : params:Program.params -> source:string -> Ast.t -> Program.compiled
(** Decide, then compile with the matching backend. *)

val compile_as :
  mode -> params:Program.params -> source:string -> Ast.t -> Program.compiled option
(** [None] when the regex cannot be executed in the requested mode (e.g.
    LNFA requested for a non-linearisable regex). NFA mode always
    succeeds. *)

val compile_result :
  params:Program.params -> source:string -> Ast.t -> (Program.compiled, Compile_error.t) result
(** Non-raising {!compile}: backend failures surface as structured
    {!Compile_error.t} values instead of [Invalid_argument]. *)

val parse_and_compile :
  params:Program.params -> string -> (Program.compiled, Compile_error.t) result
(** Convenience: parse then [compile], with parse failures reported as
    [Compile_error.Parse_error]. *)
