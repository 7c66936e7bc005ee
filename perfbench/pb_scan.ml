(* Scan workloads: one rule set, one seeded stream, simulated end to end
   with [Runner.run_stream ~jobs:1] as 512-byte packets arrive.

   Set-up is cold parse -> [Runner.compile_for] -> [Runner.place], repeated
   five times and then before a scan whenever set-ups have taken less
   than a tenth of the run so far, so its median samples the host over
   the whole run rather than one moment of it.  Each scan
   builds fresh engines, so every scan pays the lazy-DFA fills a user
   pays.  Every scan's report must equal the report of an untimed pass
   through the reference kernel. *)

open Pb_stats

let chunk = 512

type setup = { parse_s : float; compile_s : float; place_s : float; placement : Mapper.placement }

let setup rules =
  let parsed, parse_s = time (fun () -> List.map (fun s -> (s, Parser.parse_exn s)) rules) in
  let (units, _rejected), compile_s = time (fun () -> Runner.compile_for arch ~params parsed) in
  let placement, place_s = time (fun () -> Runner.place arch ~params units) in
  { parse_s; compile_s; place_s; placement }

let setup_total s = s.parse_s +. s.compile_s +. s.place_s

(* Cold set-ups, at least five and until a second is spent (at most 50);
   every one must place identically. *)
let setups rules =
  let t_end = now () +. 1. in
  let rec go acc n =
    if n >= 50 || (n >= 5 && now () >= t_end) then acc else go (setup rules :: acc) (n + 1)
  in
  let all = go [] 0 in
  let first = (List.hd all).placement in
  let same =
    List.for_all (fun s -> Runner.fingerprint s.placement = Runner.fingerprint first) all
  in
  (all, same)

let reference placement input =
  let saved = !Nbva.kernel in
  Nbva.kernel := Nbva.Reference;
  Fun.protect
    ~finally:(fun () -> Nbva.kernel := saved)
    (fun () -> Runner.run ~jobs:1 arch ~params placement ~input)

(* Timing marks: one every [seg] symbols of every array, so a scan of a
   placement with [a] arrays over [n] bytes leaves about a * n / seg of
   them, in the same order on every scan ([jobs 1] steps a packet through
   each array in turn). *)
let seg = 16

type scan = {
  report : Runner.report;
  wall_s : float;
  marks : float array;  (* the scan's start instant, then each mark's instant *)
  packet_end : int array;  (* index in [marks] of each packet's completion *)
  peak_heap_words : int;  (* major heap, sampled at every packet boundary *)
}

(* One streamed scan, from a compacted heap as a fresh process would
   start.  A sink takes the marks; the last array's mark at a packet's
   last byte is that packet's completion, since the runner's chunk
   barrier finishes a packet on every array before it starts the next. *)
let scan placement input =
  let n = String.length input in
  let packets = (n + chunk - 1) / chunk in
  let arrays = Array.length placement.Mapper.arrays in
  let marks = Array.make ((arrays * ((n / seg) + packets)) + 1) 0. in
  let count = ref 1 in
  let packet_end = Array.make packets 0 in
  let peak = ref 0 in
  let spec =
    {
      Sink.name = "perfbench-marks";
      make =
        (fun ~array_id:_ ~chars:_ ->
          Sink.events_only (fun ev ->
              let s = ev.Exec.sym in
              let packet_done = (s + 1) mod chunk = 0 || s = n - 1 in
              if packet_done || (s + 1) mod seg = 0 then begin
                marks.(!count) <- now ();
                if packet_done then begin
                  packet_end.(s / chunk) <- !count;
                  let h = (Gc.quick_stat ()).Gc.heap_words in
                  if h > !peak then peak := h
                end;
                incr count
              end));
    }
  in
  Gc.compact ();
  marks.(0) <- now ();
  let report =
    Runner.run_stream ~jobs:1 ~sinks:[ spec ] arch ~params placement
      ~stream:(Input_stream.of_string ~chunk input)
  in
  let wall_s = now () -. marks.(0) in
  { report; wall_s; marks = Array.sub marks 0 !count; packet_end; peak_heap_words = !peak }

(* Host contention only ever adds time.  On a shared 2-core VM the
   host's speed moves by up to 1.7x from one second to the next, and
   spells of a few milliseconds run at full speed even inside slow
   seconds.  So the interval between consecutive marks
   -- about a millisecond of work -- is a position, and each position's
   fastest time over the run's scans filters the contention as long as
   one scan passed that position at full speed.  Returns each position's
   fastest time, or [None] if the scans left different numbers of marks. *)
let fastest_intervals scans =
  let len = Array.length (List.hd scans).marks in
  if List.exists (fun s -> Array.length s.marks <> len) scans then None
  else
    Some
      (Array.init (len - 1) (fun k ->
           List.fold_left (fun a s -> Float.min a (s.marks.(k + 1) -. s.marks.(k))) infinity scans))

(* The end-to-end run of a scan workload. *)
let run (w : Pb_gen.workload) ~seed ~seconds =
  let rules = Pb_gen.rules w in
  let rng = Distributions.rng seed in
  let input = Pb_gen.stream w ~fragments:(Pb_gen.fragments rules) ~rng ~bytes:w.stream_bytes in
  let first = setup rules in
  let placement = first.placement in
  let fingerprint = Runner.fingerprint placement in
  (* keep each set-up's time and whether it placed identically, not its
     placement: retained placements would show in the heap figure.  Each
     starts from a compacted heap, so that no collection work left by the
     scan before it is charged to it. *)
  let timed_setup () =
    Gc.compact ();
    let s = setup rules in
    (setup_total s, Runner.fingerprint s.placement = fingerprint)
  in
  let setups = ref ((setup_total first, true) :: List.init 4 (fun _ -> timed_setup ())) in
  let expected = reference placement input in
  let t_start = now () in
  let t_end = t_start +. seconds in
  (* at least 8 scans, so that a quartile rests on two; a set-up before a
     scan whenever set-ups have taken less than a tenth of the run *)
  let rec loop scans =
    if List.length scans >= 8 && now () >= t_end then List.rev scans
    else begin
      let spent = List.fold_left (fun a (t, _) -> a +. t) 0. !setups in
      if spent < 0.1 *. (now () -. t_start) then setups := timed_setup () :: !setups;
      loop (scan placement input :: scans)
    end
  in
  let scans = loop [] in
  let same_placement = List.for_all snd !setups in
  let failed = List.length (List.filter (fun s -> s.report <> expected) scans) in
  let bytes = float_of_int (String.length input) in
  let intervals, failed =
    match fastest_intervals scans with
    | Some iv -> (iv, failed)
    | None -> ([| infinity |], failed + 1)
  in
  let wall = Array.fold_left ( +. ) 0. intervals in
  (* a packet's latency: the fastest intervals from the previous packet's
     completion to its own *)
  let packet_end = (List.hd scans).packet_end in
  let per_packet =
    List.init (Array.length packet_end) (fun k ->
        let from = if k = 0 then 0 else packet_end.(k - 1) in
        let l = ref 0. in
        for i = from to min packet_end.(k) (Array.length intervals) - 1 do
          l := !l +. intervals.(i)
        done;
        !l)
  in
  let r = expected in
  note "%s: %d scans of %d B, %d packets each, %d reports (%.4f per byte), placement stable %b"
    w.name (List.length scans) (String.length input) (List.length per_packet)
    r.Runner.match_reports
    (float_of_int r.Runner.match_reports /. bytes)
    same_placement;
  let failed = failed + if same_placement then 0 else 1 in
  ( List.length scans + 1,
    failed,
    [
      m "setup_s" "s" (median (List.map fst !setups));
      m "host_bytes_per_s" "B/s" (bytes /. wall);
      m "host_heap_mb" "MB"
        (mib_of_words (List.fold_left (fun a s -> max a s.peak_heap_words) 0 scans));
      m "sim_gchs" "Gch/s" r.Runner.throughput_gchs;
      m "sim_gchs_per_w" "Gch/s/W" (Runner.energy_efficiency_gchs_per_w r);
      m "serve_p50_ms" "ms" (1e3 *. quantile 0.5 per_packet);
      m "serve_p95_ms" "ms" (1e3 *. quantile 0.95 per_packet);
      m "serve_max_rps" "1/s" (float_of_int (List.length per_packet) /. wall);
    ] )
