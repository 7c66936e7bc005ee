(* The serve-ids workload: [rap serve] in its own process, driven
   open-loop over one pipelined Unix-socket connection.

   Each request is one packet.  Packet sizes follow the Simple IMIX that
   network load testers use: IP packets of 40, 576 and 1500 bytes in a
   7:4:1 ratio, sent as a repeating sequence (RFC 6985 specifies how such
   sequences are written down).  The
   classes alternate as in [bench sim]'s service sweep: odd requests are
   interactive with a 60 s deadline and take the solo supervised path,
   even ones are bulk and batch.  Requests are due at fixed absolute
   instants; a request's latency runs from its due instant to its reply,
   so a stall in the generator or the daemon is charged to every request
   behind it. *)

open Pb_stats

(* One IMIX cycle, the larger packets spread through it.  The order is
   fixed: with a seeded order, how often a small packet queued behind a
   large one moved the median latency by half between seeds. *)
let imix_cycle = [| 40; 576; 40; 40; 576; 40; 40; 576; 40; 576; 40; 1500 |]
let interactive_deadline_s = 60.

let request_class i =
  if i land 1 = 1 then (Wire.Interactive, Some interactive_deadline_s) else (Wire.Bulk, None)

(* Open-loop offered rates: a fixed geometric ladder (5% steps from
   1/s to ~100/s), never derived from a measured service time. *)
let ladder = Array.init 95 (fun k -> Float.round (100. *. (1.05 ** float_of_int k)) /. 100.)

(* The latency limit on p95: about three times the p95 the daemon shows
   at the serve-ids nominal rate (~75 ms, set by the 1500-byte packets),
   so a rate passes while queueing at most doubles the tail. *)
let limit_s = 0.250

(* ---- the daemon ---- *)

(* run.sh builds the CLI next to this executable's directory. *)
let rap_exe =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/rap_cli.exe"

type daemon = {
  pid : int;
  fd : Unix.file_descr;
  log : string;  (* the daemon's stderr *)
  reader : Wire.reader;
}

(* Daemons not yet reaped; killed when the benchmark exits, however it
   exits. *)
let live = ref []

let reap pid =
  live := List.filter (( <> ) pid) !live;
  snd (Unix.waitpid [] pid)

let kill_pid pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (reap pid) with Unix.Unix_error _ -> ()

let () = at_exit (fun () -> List.iter kill_pid !live)

let kill d =
  kill_pid d.pid;
  Service_client.close d.fd

let buf = Bytes.create 65536

(* Connect as soon as the daemon listens: poll every millisecond, so the
   set-up time is not rounded up to a retry interval. *)
let rec connect pid socket ~until =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception (Unix.Unix_error (e, _, _) as exn) ->
      Unix.close fd;
      if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then begin
        live := List.filter (( <> ) pid) !live;
        failwith "rap serve exited before it listened"
      end;
      if (e = Unix.ENOENT || e = Unix.ECONNREFUSED) && now () < until then begin
        Unix.sleepf 0.001;
        connect pid socket ~until
      end
      else raise exn

(* The daemon's command line: what a user types to serve [rules]. *)
let serve_args ~socket ~state_dir rules =
  [ rap_exe; "serve"; "--jobs"; "1"; "--socket"; socket; "--state-dir"; state_dir ]
  @ List.map (fun r -> "--regex=" ^ r) rules

(* Spawn [rap serve] and wait for its first Pong; the elapsed time is the
   service's set-up time.  Paths are relative to the run directory (the
   socket path must stay short).  OCAMLRUNPARAM=v=0x400 makes the OCaml
   runtime print its GC totals, peak major heap included, on exit. *)
let start ~tag ~rules =
  let socket = tag ^ ".sock" and state_dir = tag ^ ".spool" and log = tag ^ ".log" in
  let env =
    Array.of_list
      ("OCAMLRUNPARAM=v=0x400"
      :: List.filter
           (fun v -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" v))
           (Array.to_list (Unix.environment ())))
  in
  let args = Array.of_list (serve_args ~socket ~state_dir rules) in
  let t0 = now () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close err)
      (fun () -> Unix.create_process_env rap_exe args env Unix.stdin err err)
  in
  live := pid :: !live;
  let fd = connect pid socket ~until:(t0 +. 60.) in
  let d = { pid; fd; log; reader = Wire.create_reader () } in
  if not (Service_client.ping fd) then failwith "daemon did not answer Ping";
  (d, now () -. t0)

(* Drain and stop; returns the daemon's peak major heap in words, from
   the totals the runtime printed. *)
let stop d =
  (try Service_client.shutdown d.fd with Sim_error.Error _ -> ());
  Service_client.close d.fd;
  if reap d.pid <> Unix.WEXITED 0 then failwith ("rap serve failed; see " ^ d.log);
  let ic = open_in d.log in
  let rec top () =
    match input_line ic with
    | l when String.starts_with ~prefix:"top_heap_words:" l ->
        int_of_string (String.trim (String.sub l 15 (String.length l - 15)))
    | _ -> top ()
    | exception End_of_file -> failwith "rap serve printed no GC totals"
  in
  Fun.protect ~finally:(fun () -> close_in ic) top

let read_replies d k =
  match Unix.read d.fd buf 0 (Bytes.length buf) with
  | 0 -> failwith "daemon closed the connection"
  | n ->
      Wire.reader_feed d.reader buf n;
      let rec drain () =
        match Wire.reader_next d.reader with
        | Ok None -> ()
        | Ok (Some p) -> (
            match Wire.decode_reply p with
            | Ok r ->
                k r;
                drain ()
            | Error e -> failwith ("undecodable reply: " ^ e))
        | Error e -> failwith e
      in
      drain ()

type outcome = Done of float | Wrong | Shed | Expired | Failed

type phase = {
  rate : float;
  sent : int;
  outcomes : outcome list;
  late_s : float list;  (* generator lateness: send instant - due instant *)
  abandoned : bool;  (* stopped offering: the backlog ran past 4x the limit *)
}

let is_done = function Done _ -> true | _ -> false
let count p f = List.length (List.filter f p.outcomes)

(* Latencies with every missed request counted as missing the limit. *)
let latencies p = List.map (function Done l -> l | _ -> infinity) p.outcomes

(* Least-squares growth of latency over the offer, in seconds: a backlog
   that grows shows as a positive growth. *)
let growth p =
  let pts = List.mapi (fun i o -> (float_of_int i /. p.rate, o)) p.outcomes in
  let pts = List.filter_map (function t, Done l -> Some (t, l) | _ -> None) pts in
  let n = float_of_int (List.length pts) in
  let mean f = List.fold_left (fun a x -> a +. f x) 0. pts /. n in
  let mt = mean fst and ml = mean snd in
  let cov = mean (fun (t, l) -> (t -. mt) *. (l -. ml)) and var = mean (fun (t, _) -> (t -. mt) ** 2.) in
  if var > 0. then cov /. var *. float_of_int p.sent /. p.rate else 0.

(* A rate is met when every request got a correct reply, p95 is within
   the limit and latency grows by at most half the limit over the offer.
   The packet sizes differ 37-fold, so where the large ones fall moves a
   short probe's fitted growth by tens of milliseconds; the allowance
   tolerates that while a backlog that outruns the daemon exceeds it. *)
let passes p =
  (not p.abandoned)
  && List.for_all is_done p.outcomes
  && quantile 0.95 (latencies p) <= limit_s
  && growth p <= limit_s /. 2.

(* Offer requests [first] to [first + n - 1] at [rate]/s; request [i]
   carries [payload i] and its reply must equal [expected i] byte for
   byte. *)
let offer ?(first = 0) d ~rate ~n ~payload ~expected =
  let t0 = now () +. 0.01 in
  let due i = t0 +. (float_of_int i /. rate) in
  let out = Array.make n None in
  let late = Array.make n 0. in
  let acks = Queue.create () in
  let by_id = Hashtbl.create 64 in
  let next = ref 0 and open_ = ref 0 and oldest = ref 0 and abandoned = ref false in
  let finish i o =
    out.(i) <- Some o;
    decr open_
  in
  let on_reply t = function
    | Wire.Accepted { id } -> Hashtbl.replace by_id id (Queue.pop acks)
    | Wire.Overloaded _ | Wire.Quarantined _ | Wire.Rejected _ | Wire.Shutting_down ->
        finish (Queue.pop acks) Shed
    | Wire.Report { id; degraded; recovered = _; text } ->
        let i = Hashtbl.find by_id id in
        Hashtbl.remove by_id id;
        finish i (if degraded = 0 && text = expected (first + i) then Done (t -. due i) else Wrong)
    | Wire.Failed { id; error } ->
        let i = Hashtbl.find by_id id in
        Hashtbl.remove by_id id;
        finish i (match error with Sim_error.Deadline_expired _ -> Expired | _ -> Failed)
    | Wire.Stats_ok _ | Wire.Pong -> ()
  in
  let last_progress = ref (now ()) in
  while (!next < n && not !abandoned) || !open_ > 0 do
    let t = now () in
    while !next < n && (not !abandoned) && due !next <= t do
      let i = !next in
      let class_, deadline_s = request_class (first + i) in
      Wire.send_request d.fd
        (Wire.Open { name = Printf.sprintf "r%d" (first + i); class_; deadline_s });
      Wire.send_request d.fd (Wire.Chunk (payload (first + i)));
      Wire.send_request d.fd Wire.Finish;
      late.(i) <- now () -. due i;
      Queue.push i acks;
      incr open_;
      incr next
    done;
    while !oldest < !next && out.(!oldest) <> None do
      incr oldest
    done;
    if !oldest < !next && t -. due !oldest > 4. *. limit_s then abandoned := true;
    let timeout =
      if !next < n && not !abandoned then Float.max 0. (due !next -. now ()) else 0.1
    in
    match Unix.select [ d.fd ] [] [] timeout with
    | [], _, _ ->
        if now () -. !last_progress > 60. then failwith "daemon stopped replying"
    | _ ->
        last_progress := now ();
        read_replies d (on_reply (now ()))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  let sent = !next in
  {
    rate;
    sent;
    outcomes = List.init sent (fun i -> Option.get out.(i));
    late_s = Array.to_list (Array.sub late 0 sent);
    abandoned = !abandoned;
  }

(* ---- the workload ---- *)

type served = {
  setup_s : float list;
  nominal : phase list;  (* one per pass of the request sequence *)
  probes : phase list;
  max_rps : float;
  heap_words : int;
}

(* The nominal phase offers the request sequence, pass after pass, each
   pass an open-loop offer at the nominal rate, for the whole budget and
   at least twenty times, on the daemon the last set-up started.  The
   highest rate is found on a second daemon, so that the heap figure
   covers the nominal passes only.  The two alternate: one nominal pass
   before each ladder probe, so that the passes sample the host over the
   whole run, not one stretch of it.

   A bisection of the ladder brackets the highest rate, and an up-and-down
   staircase (Dixon and Mood, 1948) takes twelve more steps around it:
   one rung up after a met rate, one rung down after a missed one.  Both
   count a rung as missed only when two probes in a row miss it: host
   contention only ever fails a probe, and a second try filters a spell
   of it as the fastest-time figures do.  The geometric mean of the rungs
   the staircase stands on from its first reversal on is the estimate
   (the last rung if it never reverses): a single probe falls in one of
   the host's spells, while ten steps span several. *)
let serve ~nominal_rung ~cycle ~rules ~seconds ~payload ~expected =
  let setups = ref [] and daemons = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter kill !daemons)
    (fun () ->
      let starts = 15 in
      for k = 1 to starts do
        let d, s = start ~tag:(Printf.sprintf "d%d" k) ~rules in
        daemons := [ d ];
        setups := s :: !setups;
        if k < starts then begin
          ignore (stop d);
          daemons := []
        end
      done;
      let nd = List.hd !daemons in
      let run ?first d rung ~n = offer ?first d ~rate:ladder.(rung) ~n ~payload ~expected in
      let total =
        let offers = ladder.(nominal_rung) *. seconds /. float_of_int cycle in
        max 20 (int_of_float (ceil offers))
      in
      let nominal = ref [] in
      let nominal_pass () =
        let k = List.length !nominal in
        if k < total then nominal := run ~first:(k * cycle) nd nominal_rung ~n:cycle :: !nominal
      in
      for _ = 1 to 3 do
        nominal_pass ()
      done;
      let d, _ = start ~tag:"ladder" ~rules in
      daemons := [ d; nd ];
      let probes = ref [] in
      let probe rung =
        nominal_pass ();
        let p = run d rung ~n:(max 40 (int_of_float ladder.(rung))) in
        probes := p :: !probes;
        note "probe %.2f/s: %d sent, p95 %.1f ms, growth %.1f ms, abandoned %b -> %s" p.rate
          p.sent
          (1e3 *. quantile 0.95 (latencies p))
          (1e3 *. growth p) p.abandoned
          (if passes p then "met" else "missed");
        passes p
      in
      let met rung = probe rung || probe rung in
      let nominal_met = List.for_all passes !nominal in
      let lo = ref (if nominal_met then nominal_rung else 0) in
      let hi = ref (if nominal_met then Array.length ladder else nominal_rung) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if met mid then lo := mid else hi := mid
      done;
      let rung = ref !lo and last = ref None and visited = ref [] in
      for _ = 1 to 12 do
        let up = met !rung in
        (match !last with
        | Some was_up when was_up <> up || !visited <> [] ->
            visited := log ladder.(!rung) :: !visited
        | _ -> ());
        last := Some up;
        rung := if up then min (!rung + 1) (Array.length ladder - 1) else max (!rung - 1) 0
      done;
      let max_rps =
        match !visited with
        | [] -> ladder.(!rung)
        | v -> exp (List.fold_left ( +. ) 0. v /. float_of_int (List.length v))
      in
      while List.length !nominal < total do
        nominal_pass ()
      done;
      ignore (stop d);
      daemons := [ nd ];
      let heap_words = stop nd in
      daemons := [];
      {
        setup_s = List.rev !setups;
        nominal = List.rev !nominal;
        probes = List.rev !probes;
        max_rps;
        heap_words;
      })

(* The request sequence: one IMIX cycle (12 packets) cut from one seeded
   stream of the workload's traffic.  Request [i] is packet [i mod 12]. *)
let pool w ~seed =
  let sizes = imix_cycle in
  let s =
    Pb_gen.stream w ~fragments:(Pb_gen.fragments (Pb_gen.rules w)) ~rng:(Distributions.rng seed)
      ~bytes:(Array.fold_left ( + ) 0 sizes)
  in
  let off = ref 0 in
  Array.map
    (fun n ->
      let p = String.sub s !off n in
      off := !off + n;
      p)
    sizes

let run (w : Pb_gen.workload) ~seed ~seconds =
  let rules = Pb_gen.rules w in
  let pool = pool w ~seed in
  let payload i = pool.(i mod Array.length pool) in
  (* solo reference runs, rendered as [rap simulate] prints them *)
  let placement = (Pb_scan.setup rules).Pb_scan.placement in
  let solo = Array.map (fun p -> Runner.run ~jobs:1 arch ~params placement ~input:p) pool in
  let rendered = Array.map Runner.render_report solo in
  let expected i = rendered.(i mod Array.length pool) in
  let cycle = Array.length pool in
  let s = serve ~nominal_rung:w.Pb_gen.service_rung ~cycle ~rules ~seconds ~payload ~expected in
  let all = s.nominal @ s.probes in
  let wrong = List.fold_left (fun a p -> a + count p (function Wrong | Failed -> true | _ -> false)) 0 all in
  (* in the nominal phase a request not answered correctly, or not sent
     because its pass was abandoned, is a failure *)
  let nominal_missed =
    List.fold_left (fun a p -> a + (cycle - p.sent) + count p (fun o -> not (is_done o))) 0 s.nominal
  in
  (* Each position of the sequence's fastest latency over the nominal
     passes: the host's spells, which last about a second, fall on
     different positions in each pass, as in the scan workloads. *)
  let per_position =
    List.init cycle (fun k ->
        List.fold_left
          (fun a p -> match List.nth_opt (latencies p) k with Some l -> Float.min a l | None -> a)
          infinity s.nominal)
  in
  let late = List.concat_map (fun p -> p.late_s) s.nominal in
  note "serve-ids: nominal %.2f/s, %d passes of %d (late max %.1f ms), %d probes, max %.1f/s"
    ladder.(w.Pb_gen.service_rung) (List.length s.nominal) cycle
    (1e3 *. List.fold_left Float.max 0. late)
    (List.length s.probes) s.max_rps;
  (* model numbers over the request pool: total chars over total cycles *)
  let sum f = Array.fold_left (fun a r -> a +. f r) 0. solo in
  let chars = sum (fun r -> float_of_int r.Runner.chars) in
  let cycles = sum (fun r -> float_of_int r.Runner.cycles) in
  let energy_j = sum (fun r -> Energy.total_pj r.Runner.energy) *. 1e-12 in
  let gchs = chars *. arch.Arch.clock_ghz /. cycles in
  let runtime_s = cycles /. (arch.Arch.clock_ghz *. 1e9) in
  let mean_bytes =
    float_of_int (Array.fold_left (fun a p -> a + String.length p) 0 pool)
    /. float_of_int (Array.length pool)
  in
  let ms x = 1e3 *. Float.min x 1e3 in
  ( List.fold_left (fun a p -> a + p.sent) 0 all,
    wrong + nominal_missed,
    [
      m "setup_s" "s" (median s.setup_s);
      m "host_bytes_per_s" "B/s" (s.max_rps *. mean_bytes);
      m "host_heap_mb" "MB" (mib_of_words s.heap_words);
      m "sim_gchs" "Gch/s" gchs;
      m "sim_gchs_per_w" "Gch/s/W" (gchs /. (energy_j /. runtime_s));
      m "serve_p50_ms" "ms" (ms (quantile 0.5 per_position));
      m "serve_p95_ms" "ms" (ms (quantile 0.95 per_position));
      m "serve_max_rps" "1/s" s.max_rps;
    ] )
