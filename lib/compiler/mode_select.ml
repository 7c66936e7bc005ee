type mode = Nfa_mode | Nbva_mode | Lnfa_mode

let mode_names = function Nfa_mode -> "NFA" | Nbva_mode -> "NBVA" | Lnfa_mode -> "LNFA"

let decide ~(params : Program.params) r =
  let after_unfold = Rewrite.unfold_for_nbva ~threshold:params.Program.unfold_threshold r in
  if Ast.has_bounded_repetition after_unfold then Nbva_mode
  else
    match Lnfa_compile.try_compile ~params r with
    | Some _ -> Lnfa_mode
    | None -> Nfa_mode

let compile_as mode ~params ~source r =
  match mode with
  | Nfa_mode -> Some { Program.source; ast = r; kind = Program.U_nfa (Nfa_compile.compile r) }
  | Nbva_mode ->
      Some { Program.source; ast = r; kind = Program.U_nbva (Nbva_compile.compile ~params r) }
  | Lnfa_mode ->
      Option.map
        (fun u -> { Program.source; ast = r; kind = Program.U_lnfa u })
        (Lnfa_compile.try_compile ~params r)

let compile ~params ~source r =
  match compile_as (decide ~params r) ~params ~source r with
  | Some c -> c
  | None -> (* the decision graph only picks feasible modes *) assert false

let compile_result ~params ~source r =
  (* the decision graph only picks feasible modes; a residual
     [Invalid_argument] from a backend means the construct is beyond what
     the target implements *)
  match compile ~params ~source r with
  | c -> Ok c
  | exception Invalid_argument msg -> Error (Compile_error.v source (Compile_error.Unsupported msg))

let parse_and_compile ~params s =
  match Parser.parse_result s with
  | Error e -> Error (Compile_error.v s (Compile_error.Parse_error e))
  | Ok p -> compile_result ~params ~source:s p.Parser.ast
