(* See exec.mli. *)

type t = {
  engines : Engine.t array;
  last_events : Engine.events array;  (* parallel to [engines], refreshed by [step] *)
  tile_pieces : (int * int) list array;  (* physical tile -> (engine, local) *)
  tile_modes : Engine.mode array;
  sfa : Sfa.tables option array;  (* per engine; shared by clones (immutable) *)
}

let build (p : Mapper.placement) (tiles : Mapper.placed_tile array) =
  let engine_ids = Hashtbl.create 8 in
  let engines = ref [] in
  let n_engines = ref 0 in
  let engine_of_key key make =
    match Hashtbl.find_opt engine_ids key with
    | Some i -> i
    | None ->
        let i = !n_engines in
        incr n_engines;
        Hashtbl.replace engine_ids key i;
        engines := make () :: !engines;
        i
  in
  let tile_pieces =
    Array.map
      (fun (t : Mapper.placed_tile) ->
        List.map
          (fun piece ->
            match piece with
            | Mapper.P_unit { unit_id; local_tile } ->
                let e =
                  engine_of_key (`Unit unit_id) (fun () ->
                      let c = p.Mapper.units.(unit_id) in
                      match c.Program.kind with
                      | Program.U_nfa u -> Engine.of_nfa_unit ~ast:c.Program.ast u
                      | Program.U_nbva u -> Engine.of_nbva_unit u
                      | Program.U_lnfa _ -> assert false)
                in
                (e, local_tile)
            | Mapper.P_bin { bin_id; bin_tile } ->
                let e =
                  engine_of_key (`Bin bin_id) (fun () -> Engine.of_bin p.Mapper.bins.(bin_id))
                in
                (e, bin_tile))
          t.Mapper.pieces)
      tiles
  in
  let tile_modes =
    Array.map
      (fun (t : Mapper.placed_tile) ->
        match t.Mapper.mode with
        | Mapper.T_nfa -> Engine.M_nfa
        | Mapper.T_nbva -> Engine.M_nbva
        | Mapper.T_lnfa -> Engine.M_lnfa)
      tiles
  in
  let engines = Array.of_list (List.rev !engines) in
  {
    engines;
    last_events = Array.map Engine.events engines;
    tile_pieces;
    tile_modes;
    sfa = Array.map Engine.sfa_tables engines;
  }

let engines t = t.engines
let tile_modes t = t.tile_modes

let snapshot t = Array.map Engine.snapshot t.engines

let restore t snaps =
  if Array.length snaps <> Array.length t.engines then
    invalid_arg "Exec.restore: snapshot does not match this array";
  Array.iteri (fun i s -> Engine.restore t.engines.(i) s) snaps

let snapshot_flat t = Array.map Engine.snapshot_flat t.engines

let restore_flat t snaps =
  if Array.length snaps <> Array.length t.engines then
    invalid_arg "Exec.restore_flat: snapshot does not match this array";
  Array.iteri (fun i s -> Engine.restore_flat t.engines.(i) s) snaps

type tile_events = {
  t_mode : Engine.mode;
  t_powered : bool;
  t_enabled_cols : int;
  t_active_states : int;
}

type bv_phase = { p_mode : Engine.mode; p_bv_cols : int; p_iterations : int; p_stall : int }

type array_events = {
  sym : int;
  symbol : char;
  stall : int;
  cross : int;
  reports : int;
  tiles : tile_events array;
  bv_phases : bv_phase list;
}

(* Assembly reads only the engines' refreshed event records ([step]
   returns the same physical records held in [last_events]). *)
let assemble (arch : Arch.t) t ~sym c =
  let cross = ref 0 and reports = ref 0 and stall = ref 0 in
  let phases = ref [] in
  Array.iter
    (fun e ->
      let ev = Engine.events e in
      (if arch.Arch.supports_nbva then
         for lt = 0 to Array.length ev.Engine.triggered - 1 do
           if ev.Engine.triggered.(lt) then begin
             let iterations =
               match arch.Arch.kind with
               | Arch.Rap -> Engine.bv_depth e
               | Arch.Bvap ->
                   max 1
                     ((Engine.max_bv_size e + arch.Arch.bv_word_bits - 1)
                     / arch.Arch.bv_word_bits)
               | Arch.Cama | Arch.Ca -> 0
             in
             let p_stall =
               Arch.stall_cycles arch ~bv_depth:(Engine.bv_depth e)
                 ~max_bv_size:(Engine.max_bv_size e)
             in
             phases :=
               {
                 p_mode = Engine.mode e;
                 p_bv_cols = Engine.tile_bv_cols e lt;
                 p_iterations = iterations;
                 p_stall;
               }
               :: !phases;
             stall := max !stall p_stall
           end
         done);
      cross := !cross + ev.Engine.cross;
      reports := !reports + ev.Engine.reports)
    t.engines;
  let tiles =
    Array.mapi
      (fun ti pieces ->
        let powered = ref false and enabled = ref 0 and active = ref 0 in
        List.iter
          (fun (ei, lt) ->
            let ev = t.last_events.(ei) in
            if ev.Engine.powered.(lt) then powered := true;
            enabled := !enabled + ev.Engine.enabled.(lt);
            active := !active + ev.Engine.active.(lt))
          pieces;
        {
          t_mode = t.tile_modes.(ti);
          t_powered = !powered;
          t_enabled_cols = !enabled;
          t_active_states = !active;
        })
      t.tile_pieces
  in
  {
    sym;
    symbol = c;
    stall = !stall;
    cross = !cross;
    reports = !reports;
    tiles;
    bv_phases = List.rev !phases;
  }

let step arch t ~sym c =
  Array.iter (fun e -> ignore (Engine.step e c)) t.engines;
  assemble arch t ~sym c

(* A clone shares all compiled structure (engines' automata and masks,
   the tile resolution) with the template; only run state and event
   records are per-clone. *)
let clone_fresh t =
  let engines = Array.map Engine.clone_fresh t.engines in
  {
    engines;
    last_events = Array.map Engine.events engines;
    tile_pieces = t.tile_pieces;
    tile_modes = t.tile_modes;
    sfa = t.sfa;
  }

(* ------------------------------------------------------------------ *)
(* Intra-stream parallelism: Simultaneous-FA chunk composition.

   One stream's chunks run concurrently even though each chunk's entry
   state depends on every earlier chunk.  Four phases:

   1. (parallel, per chunk) Run every engine's KERNEL on a fresh-state
      clone — this yields the chunk's affine constant [b] (the state
      from the empty start state) and, feeding the same bytes into
      {!Sfa.feed}, the homogeneous transfer rows for single-word
      engines.  Engines outside the matrix fragment (BV vectors,
      multi-word state) get the clone run itself as a SPECULATION that
      the chunk enters in the empty state.

   2. (serial, left to right) Fold the chunks over the real context:
      per engine, matrix engines compose by {!Sfa.apply}; speculative
      engines whose entry state is {!Engine.semantic_zero} adopt the
      clone's end state wholesale (the speculation was exact); on a
      mismatch the engine's kernel re-runs the chunk serially.  The
      entry snapshot of each chunk is captured here — it is unknowable
      any earlier.

   3. (parallel, per chunk) Replay each chunk with the FULL {!step}
      from its now-known entry state, buffering the per-symbol
      {!array_events} ({!assemble} allocates fresh records, so
      buffering needs no copies).  Projections and stats are pure
      functions of run state, so the replayed stream is exactly what a
      serial run emits.

   4. (serial) Emit the buffers in symbol order.

   Phase 2 is O(engines × states) word ops per boundary for the matrix
   fragment; speculation misses cost one kernel pass — still far below
   the full per-symbol event pipeline, so Amdahl leaves phases 1 and 3
   carrying the win.  Phase 3 transiently holds one [array_events] per
   buffered symbol.

   Bit identity: reports, cycles, energy events, their float-add order
   — everything downstream folds in phase-4 emission order, which is
   symbol order, identical to serial. *)

(* Sequential-fallback cost model for the chunked path, in arena-word
   units per input symbol:
   - [kernel_w]: one kernel pass over every engine (phase 1 and the
     phase-3 replay both pay it; state words are a fair proxy for the
     per-symbol word traffic).
   - [spec_w]: the kernel cost of engines OUTSIDE the matrix fragment.
     Their phase-1 run is a speculation that the chunk enters in the
     empty state; on a live stream that speculation usually misses, and
     the phase-2 re-run is SERIAL — so this term does not divide by
     [jobs].
   - [xfer_w]: per-chunk transfer-matrix build cost — one {!Sfa.feed}
     per matrix engine per symbol, O(live rows); estimated at a quarter
     of the table dimension (rows die off as they converge). *)
let chunk_cost_model t =
  let kernel_w = ref 0 and spec_w = ref 0 and xfer_w = ref 0 in
  Array.iteri
    (fun j e ->
      let words = Engine.state_words e in
      kernel_w := !kernel_w + words;
      match t.sfa.(j) with
      | Some (Sfa.Linear { n; _ }) -> xfer_w := !xfer_w + ((n + 3) / 4)
      | Some (Sfa.Shift { width; _ }) -> xfer_w := !xfer_w + ((width + 3) / 4)
      | None -> spec_w := !spec_w + words)
    t.engines;
  (!kernel_w, !spec_w, !xfer_w)

let run_chunks ?(jobs = 1) ?(deadline = Scheduler.no_deadline) arch t ~base ~chunks ~emit =
  let k = Array.length chunks in
  let total = Array.fold_left (fun acc c -> acc + String.length c) 0 chunks in
  let run_serial () =
    let sym = ref base in
    Array.iter
      (fun chunk ->
        String.iter
          (fun c ->
            if (!sym - base) land 255 = 0 then Scheduler.check_deadline deadline;
            emit (step arch t ~sym:!sym c);
            incr sym)
          chunk)
      chunks
  in
  (* The chunked path is only entered when the cost model predicts a
     win: it duplicates kernel work (speculative pass + replay), builds
     transfer matrices, and serially re-runs mispredicted speculative
     engines, so against [jobs] effective domains — clamped to the
     machine, exactly as the scheduler will clamp them — the projected
     per-symbol cost must beat the serial step by a margin, and the
     total work (scaled by the duplication) must clear the scheduler's
     own inline-fallback bar, below which the "parallel" phases would
     run inline and the duplication could never be repaid. *)
  if k = 0 || total = 0 then ()
  else if jobs <= 1 || k = 1 then run_serial ()
  else begin
    let jobs = min jobs (Scheduler.available_parallelism ()) in
    let kernel_w, spec_w, xfer_w = chunk_cost_model t in
    let full = 2 * max 1 kernel_w in
    (* per symbol: full-step replay + speculative kernel + matrix build *)
    let pass = full + kernel_w + xfer_w in
    let scaled_work = max 1 (total / k * pass / full) in
    let chunked = ((pass + jobs - 1) / jobs) + spec_w in
    let profitable =
      jobs > 1
      && scaled_work * k >= Scheduler.seq_work_threshold
      && 4 * chunked <= 3 * full
    in
    if not profitable then run_serial ()
    else begin
    let n_eng = Array.length t.engines in
    let bases = Array.make k base in
    for ki = 1 to k - 1 do
      bases.(ki) <- bases.(ki - 1) + String.length chunks.(ki - 1)
    done;
    let clones = Array.init k (fun _ -> clone_fresh t) in
    let xfers = Array.init k (fun _ -> Array.map (Option.map Sfa.start) t.sfa) in
    let work = scaled_work in
    (* phase 1: transfer rows + speculative from-zero kernel runs *)
    Scheduler.parallel_for ~work_per_index:work ~jobs k (fun ki ->
        let cl = clones.(ki) and xf = xfers.(ki) in
        String.iteri
          (fun off c ->
            if off land 255 = 0 then Scheduler.check_deadline deadline;
            Array.iter (function Some x -> Sfa.feed x c | None -> ()) xf;
            Array.iter (fun e -> Engine.step_kernel e c) cl.engines)
          chunks.(ki));
    (* phase 2: serial composition over the real context *)
    let starts = Array.make k [||] in
    for ki = 0 to k - 1 do
      Scheduler.check_deadline deadline;
      starts.(ki) <- snapshot_flat t;
      let cl = clones.(ki) and xf = xfers.(ki) in
      for j = 0 to n_eng - 1 do
        let e = t.engines.(j) in
        match xf.(j) with
        | Some x ->
            Engine.set_active_word e
              (Sfa.apply x ~b:(Engine.active_word cl.engines.(j)) (Engine.active_word e))
        | None ->
            if Engine.semantic_zero e then
              (* speculation hit: the chunk really did start from the
                 empty state, so the clone's end state is the truth *)
              Engine.restore_flat e (Engine.snapshot_flat cl.engines.(j))
            else
              (* mismatch: this engine re-runs the chunk's kernel *)
              String.iteri
                (fun off c ->
                  if off land 255 = 0 then Scheduler.check_deadline deadline;
                  Engine.step_kernel e c)
                chunks.(ki)
      done
    done;
    (* phase 3: parallel full-stats replay from the known entry states *)
    let bufs = Array.map (fun c -> Array.make (String.length c) None) chunks in
    Scheduler.parallel_for ~work_per_index:work ~jobs k (fun ki ->
        let cl = clones.(ki) in
        restore_flat cl starts.(ki);
        let buf = bufs.(ki) and cbase = bases.(ki) in
        String.iteri
          (fun off c ->
            if off land 255 = 0 then Scheduler.check_deadline deadline;
            buf.(off) <- Some (step arch cl ~sym:(cbase + off) c))
          chunks.(ki));
    (* phase 4: ordered emission *)
    Array.iter
      (Array.iter (function Some ev -> emit ev | None -> assert false))
      bufs
    end
  end
