(* perfbench: the repository's end-to-end and per-layer benchmark.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   prints diagnostics on stderr and, as the last line of stdout, one JSON
   object {"correct", "attempted", "failed", "metrics"}.  See README.md
   in this directory for the workloads and the meaning of every metric. *)

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
    \       (workloads: snort-ids clamav-bv prosite-hot serve-ids)";
  exit 2

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Every file a run writes (sockets, spools, daemon logs) lives in one
   run directory under the current directory, removed when the run
   ends. *)
let in_run_dir f =
  let root = ".perfbench-run" in
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  let home = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir home;
      remove_tree dir;
      try Unix.rmdir root with Unix.Unix_error _ -> ())
    f

let () =
  (* exit through at_exit, which kills the daemons a run has spawned *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  match Array.to_list Sys.argv with
  | _ :: args ->
      let rec opts acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let o = opts [] args in
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
      let w = match Pb_gen.find (get "workload") with Some w -> w | None -> usage () in
      let seed = int "seed" and seconds = float_of_int (int "seconds") and trace = int "trace" in
      if seconds <= 0. || (trace <> 0 && trace <> 1) then usage ();
      let attempted, failed, metrics =
        in_run_dir (fun () ->
            if trace = 1 then Pb_layers.run w ~seed ~seconds
            else
              match w.Pb_gen.kind with
              | Pb_gen.Scan -> Pb_scan.run w ~seed ~seconds
              | Pb_gen.Serve -> Pb_serve.run w ~seed ~seconds)
      in
      print_endline
        (Pb_stats.result_line ~correct:(failed = 0) ~attempted ~failed metrics)
  | [] -> usage ()
