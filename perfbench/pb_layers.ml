(* The traced run: per-layer numbers, measured from outside the library.

   Each layer is timed as its own pass over the same placement and input,
   reading [Gc.minor_words] around it, and self costs come from
   subtraction:

     kernel     = pass of Engine.step_kernel over every engine
     projection = pass of Engine.step            - kernel
     assemble   = pass of Exec.step              - Engine.step
     cost       = Exec.step + Cost.of_events and the ledger fold - Exec.step
     runner     = Runner.run ~jobs:1             - cost pass

   Every pass builds fresh engines, so each pays the same cold lazy-DFA
   fills as the end-to-end run.  The service layers are measured by an
   in-process replay through Admission and the Wire codec, and by a short
   open-loop probe of a spawned daemon. *)

open Pb_stats

let reps = 3

let timed f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  f ();
  let dt = now () -. t0 in
  (dt, Gc.minor_words () -. w0)

(* One pass on fresh engines: time and minor words. *)
let pass placement f =
  let execs = Array.map (Exec.build placement) placement.Mapper.arrays in
  timed (fun () -> f execs)

let each_symbol input f =
  for i = 0 to String.length input - 1 do
    f i (String.unsafe_get input i)
  done

let kernel input execs =
  Array.iter
    (fun ex ->
      let es = Exec.engines ex in
      each_symbol input (fun _ c ->
          for j = 0 to Array.length es - 1 do
            Engine.step_kernel es.(j) c
          done))
    execs

let step input execs =
  Array.iter
    (fun ex ->
      let es = Exec.engines ex in
      each_symbol input (fun _ c ->
          for j = 0 to Array.length es - 1 do
            ignore (Engine.step es.(j) c)
          done))
    execs

let exec_step input execs =
  Array.iter (fun ex -> each_symbol input (fun i c -> ignore (Exec.step arch ex ~sym:i c))) execs

let exec_cost input execs =
  let ledger = Energy.create () in
  let cycles = ref 0 in
  Array.iter
    (fun ex ->
      each_symbol input (fun i c ->
          let sc = Cost.of_events arch (Exec.step arch ex ~sym:i c) in
          cycles := !cycles + sc.Cost.cycles;
          for k = 0 to Cost.num_categories - 1 do
            Energy.add ledger (Cost.category_of_index k) sc.Cost.cat_pj.(k)
          done))
    execs

(* Engine facts of a placement after one full pass: steppers chosen and
   lazy-DFA cache activity. *)
let engine_facts placement input =
  let execs = Array.map (Exec.build placement) placement.Mapper.arrays in
  step input execs;
  let engines = Array.concat (Array.to_list (Array.map Exec.engines execs)) in
  let stepper name =
    Array.fold_left (fun a e -> if Engine.stepper_name e = name then a + 1 else a) 0 engines
  in
  let fills, flushes, blown =
    Array.fold_left
      (fun (f, fl, b) e ->
        match Engine.dfa_stats e with
        | Some (_, fills, flushes, disabled) -> (f + fills, fl + flushes, if disabled then b + 1 else b)
        | None -> (f, fl, b))
      (0, 0, 0) engines
  in
  [
    m "engine.dfa.fills" "count" (float_of_int fills);
    m "engine.dfa.flushes" "count" (float_of_int flushes);
    m "engine.dfa.blown" "count" (float_of_int blown);
    m "engine.steppers.dfa" "count" (float_of_int (stepper "dfa"));
    m "engine.steppers.general" "count" (float_of_int (stepper "general"));
    m "engine.steppers.word" "count" (float_of_int (stepper "word"));
    m "engine.steppers.shift-and" "count" (float_of_int (stepper "shift-and"));
  ]

let model (r : Runner.report) =
  [
    m "model.cycles" "count" (float_of_int r.Runner.cycles);
    m "model.stall_cycles" "count" (float_of_int (r.Runner.cycles - r.Runner.chars));
    m "model.match_reports" "count" (float_of_int r.Runner.match_reports);
    m "workload.reports_per_byte" "1/B"
      (float_of_int r.Runner.match_reports /. float_of_int (max 1 r.Runner.chars));
  ]
  @ List.map
      (fun cat ->
        m
          (Printf.sprintf "model.energy.%s_pj" (Energy.category_name cat))
          "pJ"
          (Energy.get_pj r.Runner.energy cat))
      Energy.all_categories

(* Host passes of every simulation layer, interleaved round by round so
   a slow spell of the host falls on every layer alike; [wrong] counts
   full-stack reports that disagree with the reference kernel. *)
let layers placement input =
  let bytes = float_of_int (String.length input) in
  let expected = Pb_scan.reference placement input in
  let wrong = ref 0 in
  let runner () =
    let r = ref None in
    let tw = timed (fun () -> r := Some (Runner.run ~jobs:1 arch ~params placement ~input)) in
    if !r <> Some expected then incr wrong;
    tw
  in
  let rounds =
    List.init reps (fun _ ->
        [|
          pass placement (kernel input);
          pass placement (step input);
          pass placement (exec_step input);
          pass placement (exec_cost input);
          runner ();
        |])
  in
  let t k = median (List.map (fun r -> fst r.(k)) rounds) in
  let w k = median (List.map (fun r -> snd r.(k)) rounds) in
  let ns k j = 1e9 *. (t k -. if j < 0 then 0. else t j) /. bytes in
  let words k j = (w k -. if j < 0 then 0. else w j) /. bytes in
  ( reps,
    !wrong,
    expected,
    [
      m "engine.kernel.ns_per_byte" "ns/B" (ns 0 (-1));
      m "engine.kernel.minor_words_per_byte" "words/B" (words 0 (-1));
      m "engine.project.ns_per_byte" "ns/B" (ns 1 0);
      m "engine.project.minor_words_per_byte" "words/B" (words 1 0);
      m "exec.assemble.ns_per_byte" "ns/B" (ns 2 1);
      m "exec.assemble.minor_words_per_byte" "words/B" (words 2 1);
      m "cost.ns_per_byte" "ns/B" (ns 3 2);
      m "cost.minor_words_per_byte" "words/B" (words 3 2);
      m "runner.self_ns_per_byte" "ns/B" (ns 4 3);
      m "runner.minor_words_per_byte" "words/B" (words 4 (-1));
      m "runner.kernel_gap" "x" (t 4 /. t 0);
    ] )

(* The cost of the end-to-end run's instrumentation: a streamed scan with
   the timing-mark sink of Pb_scan.scan against the same scan, chunked
   alike, without it, in alternating pairs; the fastest of each side, as
   host contention only ever adds time. *)
let trace_overhead placement input =
  let plain () =
    Gc.compact ();
    snd
      (time (fun () ->
           Runner.run_stream ~jobs:1 arch ~params placement
             ~stream:(Input_stream.of_string ~chunk:Pb_scan.chunk input)))
  in
  let traced () = (Pb_scan.scan placement input).Pb_scan.wall_s in
  let pairs =
    List.init 5 (fun i ->
        if i mod 2 = 0 then
          let p = plain () in
          (p, traced ())
        else
          let t = traced () in
          (plain (), t))
  in
  let fastest l = List.fold_left Float.min infinity l in
  m "trace.overhead" "x" (fastest (List.map snd pairs) /. fastest (List.map fst pairs))

(* In-process replay through the admission layer: arrivals at modelled
   instants of a fixed rate, execution in real time. *)
let admission_replay placement ~rate ~n ~payload ~expected =
  let adm = Admission.create { Admission.default_config with Admission.jobs = 1 } arch ~params placement in
  let group = Admission.default_config.Admission.group in
  let t0 = now () in
  let arrival i = t0 +. (float_of_int i /. rate) in
  let request = Hashtbl.create n (* admission id -> request index *) in
  let outcomes = ref [] and per_pass = ref [] and wrong = ref 0 and next = ref 0 in
  while !next < n || Admission.pending adm > 0 do
    let t = now () in
    while !next < n && arrival !next <= t do
      let i = !next in
      let class_, deadline_s = Pb_serve.request_class i in
      (match
         Admission.submit ?deadline_s ~enqueued_at:(arrival i) adm ~name:(Printf.sprintf "r%d" i)
           ~class_ ~input:(payload i)
       with
      | Ok id -> Hashtbl.replace request id i
      | Error _ -> () (* counted by Admission.shed_count *));
      incr next
    done;
    if Admission.pending adm > 0 then begin
      let os = Admission.run_pending ~max:group adm in
      let bulk = List.filter (fun (o : Admission.outcome) -> o.Admission.o_class = Wire.Bulk) os in
      if bulk <> [] then per_pass := float_of_int (List.length bulk) :: !per_pass;
      List.iter
        (fun (o : Admission.outcome) ->
          if
            o.Admission.o_error = None
            && o.Admission.o_text <> expected (Hashtbl.find request o.Admission.o_id)
          then incr wrong)
        os;
      outcomes := os @ !outcomes
    end
    else if !next < n then Unix.sleepf (Float.max 0. (Float.min 0.005 (arrival !next -. now ())))
  done;
  let os = !outcomes in
  let count f = float_of_int (List.length (List.filter f os)) in
  let expired =
    count (fun o -> match o.Admission.o_error with Some (Sim_error.Deadline_expired _) -> true | _ -> false)
  in
  let errored = count (fun o -> o.Admission.o_error <> None) in
  let queued = List.map (fun o -> 1e3 *. o.Admission.o_queued_s) os in
  let exec = List.map (fun o -> 1e3 *. (o.Admission.o_latency_s -. o.Admission.o_queued_s)) os in
  ( n,
    !wrong + int_of_float (errored -. expired),
    [
      m "admission.queue_wait_ms.p50" "ms" (quantile 0.5 queued);
      m "admission.queue_wait_ms.p95" "ms" (quantile 0.95 queued);
      m "admission.exec_ms.p50" "ms" (quantile 0.5 exec);
      m "admission.shed" "count" (float_of_int (Admission.shed_count adm));
      m "admission.expired" "count" expired;
      m "admission.failed" "count" (errored -. expired);
      m "admission.attempted" "count" (float_of_int n);
      m "batch.streams_per_pass" "streams" (median !per_pass);
    ] )

(* Client-side codec cost of one request: encode Open/Chunk/Finish, frame,
   and decode through the incremental reader fed in 64-byte slices. *)
let wire_codec ~n ~payload =
  let frame s =
    let b = Bytes.create (4 + String.length s) in
    Bytes.set_int32_le b 0 (Int32.of_int (String.length s));
    Bytes.blit_string s 0 b 4 (String.length s);
    b
  in
  let one i =
    let reader = Wire.create_reader () in
    let frames =
      List.map
        (fun r -> frame (Wire.encode_request r))
        [ Wire.Open { name = "r"; class_ = Wire.Bulk; deadline_s = None }; Wire.Chunk (payload i); Wire.Finish ]
    in
    let wire = Bytes.concat Bytes.empty frames in
    let decoded = ref 0 in
    let off = ref 0 in
    while !off < Bytes.length wire do
      let k = min 64 (Bytes.length wire - !off) in
      Wire.reader_feed reader (Bytes.sub wire !off k) k;
      off := !off + k;
      let rec drain () =
        match Wire.reader_next reader with
        | Ok (Some p) ->
            (match Wire.decode_request p with Ok _ -> incr decoded | Error e -> failwith e);
            drain ()
        | Ok None -> ()
        | Error e -> failwith e
      in
      drain ()
    done;
    if !decoded <> 3 then failwith "wire codec lost a frame"
  in
  let rounds = 20 in
  let (), t = time (fun () -> for _ = 1 to rounds do for i = 0 to n - 1 do one i done done) in
  m "wire.codec_us" "us" (1e6 *. t /. float_of_int (rounds * n))

(* A spawned daemon under a short open-loop probe: mean client latency of
   bulk requests minus the daemon's own bulk mean from its Stats reply
   (the reply's quantiles are histogram bucket edges, its means exact),
   and how late the generator ran. *)
let daemon_probe rules ~rate ~n ~payload ~expected =
  let d, _ = Pb_serve.start ~tag:"probe" ~rules in
  Fun.protect
    ~finally:(fun () -> Pb_serve.kill d)
    (fun () ->
      let p = Pb_serve.offer d ~rate ~n ~payload ~expected in
      let stats = Service_client.stats d.Pb_serve.fd in
      ignore (Pb_serve.stop d);
      let daemon_bulk_mean_ms =
        match Json.of_string_result stats with
        | Ok j -> (
            match Option.bind (Json.member "latency" j) (Json.member "bulk") with
            | Some b -> (
                match Json.member "mean_ms" b with
                | Some (Json.Float f) -> f
                | Some (Json.Int i) -> float_of_int i
                | _ -> nan)
            | None -> nan)
        | Error _ -> nan
      in
      let bulk =
        List.filteri (fun i _ -> fst (Pb_serve.request_class i) = Wire.Bulk) p.Pb_serve.outcomes
        |> List.filter_map (function Pb_serve.Done l -> Some (1e3 *. l) | _ -> None)
      in
      let missed = List.length (List.filter (fun o -> not (Pb_serve.is_done o)) p.Pb_serve.outcomes) in
      ( p.Pb_serve.sent,
        missed,
        [
          m "daemon.overhead_ms.mean" "ms"
            (List.fold_left ( +. ) 0. bulk /. float_of_int (List.length bulk) -. daemon_bulk_mean_ms);
          m "generator.late_ms.max" "ms" (1e3 *. List.fold_left Float.max 0. p.Pb_serve.late_s);
        ] ))

let run (w : Pb_gen.workload) ~seed ~seconds:_ =
  let rules = Pb_gen.rules w in
  let rng = Distributions.rng seed in
  let fragments = Pb_gen.fragments rules in
  let pool = Pb_serve.pool w ~seed in
  let input =
    match w.Pb_gen.kind with
    | Pb_gen.Scan -> Pb_gen.stream w ~fragments ~rng ~bytes:w.Pb_gen.stream_bytes
    | Pb_gen.Serve -> String.concat "" (Array.to_list pool)
  in
  let setups, same = Pb_scan.setups rules in
  let placement = (List.hd setups).Pb_scan.placement in
  let med f = median (List.map f setups) in
  let setup =
    [
      m "parse.s" "s" (med (fun s -> s.Pb_scan.parse_s));
      m "compile.s" "s" (med (fun s -> s.Pb_scan.compile_s));
      m "place.s" "s" (med (fun s -> s.Pb_scan.place_s));
    ]
  in
  let l_att, l_wrong, report, layer_metrics = layers placement input in
  let facts = engine_facts placement input in
  let overhead = trace_overhead placement input in
  let rendered, solo_s =
    time (fun () ->
        Array.map (fun p -> Runner.render_report (Runner.run ~jobs:1 arch ~params placement ~input:p)) pool)
  in
  note "%s: solo service %.2f ms per request over the IMIX pool" w.Pb_gen.name
    (1e3 *. solo_s /. float_of_int (Array.length pool));
  let n = Array.length pool in
  let payload i = pool.(i mod n) and expected i = rendered.(i mod n) in
  let n = 60 in
  let a_att, a_wrong, adm = admission_replay placement ~rate:Pb_serve.ladder.(w.Pb_gen.service_rung) ~n ~payload ~expected in
  let codec = wire_codec ~n:(Array.length pool) ~payload in
  let d_att, d_missed, daemon = daemon_probe rules ~rate:Pb_serve.ladder.(w.Pb_gen.service_rung) ~n ~payload ~expected in
  ( l_att + a_att + d_att,
    l_wrong + a_wrong + d_missed + (if same then 0 else 1),
    setup @ layer_metrics @ facts @ model report @ adm @ [ codec ] @ daemon @ [ overhead ] )
