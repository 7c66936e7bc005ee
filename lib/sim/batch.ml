(* See batch.mli. *)

type source = { src_name : string; src_open : unit -> Input_stream.t }

let name s = s.src_name
let of_string ?chunk ~name s = { src_name = name; src_open = (fun () -> Input_stream.of_string ?chunk s) }
let of_file ?chunk ~name path = { src_name = name; src_open = (fun () -> Input_stream.of_file ?chunk path) }

type stream_report = { bs_name : string; bs_report : Runner.report }

type aggregate = {
  agg_streams : int;
  agg_chars : int;
  agg_cycles : int;
  agg_reports : int;
  agg_throughput_gchs : float;
}

type t = { streams : stream_report array; aggregate : aggregate }

let default_group = 4

(* One member of a task: a stream-clone of the array context and its
   own view of the input. *)
type member = {
  m_stream : int;  (* index into [sources] *)
  m_exec : Exec.t;
  m_input : Input_stream.t;
  m_sink : Sink.t;
  mutable m_cycles : int;
  mutable m_reports : int;
}

(* Run one member's stream to exhaustion, chunk by chunk, through
   Exec.run_chunks — serial stepping at [intra_jobs] 1, Simultaneous-FA
   chunk composition above it.  Event consumption is Runner.run_stream's
   per-symbol accounting, in symbol order: the per-stream bit-identity
   contract. *)
let run_member ~intra_jobs arch m =
  let rec loop base =
    match Input_stream.next m.m_input with
    | None -> ()
    | Some chunk ->
        Exec.run_chunks ~jobs:intra_jobs arch m.m_exec ~base
          ~chunks:(Runner.sub_split chunk intra_jobs)
          ~emit:(fun ev ->
            m.m_cycles <- m.m_cycles + 1 + ev.Exec.stall;
            m.m_reports <- m.m_reports + ev.Exec.reports;
            m.m_sink.Sink.on_events ev);
        loop (base + String.length chunk)
  in
  loop 0

let run ?(jobs = 1) ?(intra_jobs = 1) ?(group = default_group) ?done_stamps (arch : Arch.t)
    ~params (p : Mapper.placement) ~sources =
  ignore params;
  let b = Array.length sources in
  if b = 0 then invalid_arg "Batch.run: no sources";
  (match done_stamps with
  | Some a when Array.length a < b -> invalid_arg "Batch.run: done_stamps shorter than sources"
  | _ -> ());
  let num_arrays = Array.length p.Mapper.arrays in
  (* per-stream completion stamps: a stream is done when its last
     (group x array) task retires, which the service layer turns into
     that request's finish timestamp.  Pure instrumentation — the
     decrement is the only cross-task communication, and it never feeds
     back into results. *)
  let remaining = Array.init b (fun _ -> Atomic.make num_arrays) in
  let stamp_done s =
    match done_stamps with
    | None -> ()
    | Some stamps ->
        if Atomic.fetch_and_add remaining.(s) (-1) = 1 then stamps.(s) <- Unix.gettimeofday ()
  in
  let group_w = max 1 group in
  let n_groups = (b + group_w - 1) / group_w in
  (* per-stream accounting, per-array slots inside — the exact slot
     structure Runner.run_stream keeps for its one stream.  Sink
     instantiation happens here on the caller's domain, in stream-major
     array-minor order, never inside a worker. *)
  let sinks = Array.init b (fun _ -> Runner.energy_sink arch ~num_arrays) in
  let insts =
    Array.init b (fun s ->
        let spec, _, _ = sinks.(s) in
        Array.init num_arrays (fun array_id -> spec.Sink.make ~array_id ~chars:0))
  in
  let cycles_slots = Array.init b (fun _ -> Array.make num_arrays 0) in
  let reports_slots = Array.init b (fun _ -> Array.make num_arrays 0) in
  let chars_slots = Array.make b 0 in
  (* one compiled template per array; tasks clone it (sharing all
     compiled structure) instead of rebuilding engines per stream *)
  let templates = Array.map (fun tiles -> Exec.build p tiles) p.Mapper.arrays in
  (* the (group x array) task grid, flattened into one work list: each
     task owns the (stream, array) accounting slots of its members, so
     any interleaving of tasks produces the same slots — schedules only
     change wall-clock, never results *)
  let task idx =
    let gi = idx / num_arrays and ai = idx mod num_arrays in
    let lo = gi * group_w in
    let k = min b (lo + group_w) - lo in
    let members =
      Array.init k (fun j ->
          let s = lo + j in
          {
            m_stream = s;
            m_exec = Exec.clone_fresh templates.(ai);
            m_input = sources.(s).src_open ();
            m_sink = insts.(s).(ai);
            m_cycles = 0;
            m_reports = 0;
          })
    in
    (* a single-member task splits its own stream across [intra_jobs];
       a multi-member task already fills its domain with whole streams *)
    let intra_jobs =
      if intra_jobs > 1 && k = 1 && Scheduler.available_parallelism () > 1 then intra_jobs else 1
    in
    Fun.protect
      ~finally:(fun () -> Array.iter (fun m -> Input_stream.close m.m_input) members)
      (fun () -> Array.iter (run_member ~intra_jobs arch) members);
    Array.iter
      (fun m ->
        cycles_slots.(m.m_stream).(ai) <- m.m_cycles;
        reports_slots.(m.m_stream).(ai) <- m.m_reports;
        if ai = 0 then chars_slots.(m.m_stream) <- Input_stream.pos m.m_input;
        stamp_done m.m_stream)
      members
  in
  (* each task steps whole streams — far above the sequential-fallback
     threshold, so keep the grid parallel whenever jobs allows *)
  Scheduler.parallel_for ~work_per_index:65536 ~jobs (n_groups * num_arrays) task;
  let streams =
    Array.init b (fun s ->
        let _, ledgers, mode_slots = sinks.(s) in
        Array.iteri
          (fun ai inst -> inst.Sink.on_close ~cycles:cycles_slots.(s).(ai))
          insts.(s);
        let report =
          Runner.assemble_report arch p ~chars:chars_slots.(s) ~cycles_slots:cycles_slots.(s)
            ~reports_slots:reports_slots.(s) ~ledgers ~mode_slots ~execs:templates ~degraded:[]
        in
        { bs_name = sources.(s).src_name; bs_report = report })
  in
  let agg_chars = Array.fold_left (fun acc r -> acc + r.bs_report.Runner.chars) 0 streams in
  let agg_cycles =
    Array.fold_left (fun acc r -> max acc r.bs_report.Runner.cycles) 0 streams
  in
  let agg_reports =
    Array.fold_left (fun acc r -> acc + r.bs_report.Runner.match_reports) 0 streams
  in
  let agg_cycles = max 1 agg_cycles in
  {
    streams;
    aggregate =
      {
        agg_streams = b;
        agg_chars;
        agg_cycles;
        agg_reports;
        agg_throughput_gchs =
          float_of_int agg_chars *. arch.Arch.clock_ghz /. float_of_int agg_cycles;
      };
  }

let pp_aggregate fmt a =
  Format.fprintf fmt "@[batch: %d streams, %d chars in %d cycles, %.2f Gch/s aggregate, %d reports@]"
    a.agg_streams a.agg_chars a.agg_cycles a.agg_throughput_gchs a.agg_reports
