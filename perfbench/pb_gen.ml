(* Seeded workload inputs.

   The suite generators in [Benchmarks] fix their own stream seed, so the
   benchmark rebuilds each stream from the suite's alphabet and fragment
   rate with the seed it is given.  The rule sets themselves are the
   suites' (they are the workload's fixed program); only the bytes the
   program scans depend on [--seed]. *)

type alphabet = Text | Binary | Protein

type kind = Scan | Serve

type workload = {
  name : string;
  kind : kind;
  suite : string;
  scale : int;
  alphabet : alphabet;
  embed_per_mille : int;  (* pattern-fragment rate in the stream *)
  stream_bytes : int;  (* one scan's input (Scan workloads) *)
  service_rung : int;
      (* offered rate of the service phases: the rung of Pb_serve.ladder
         nearest a third of the IMIX capacity measured on a 2-core Xeon
         VM -- for serve-ids the daemon's highest rate met (45/s), for the
         scan workloads 1 / the mean solo Runner.run time of the request
         pool (66, 19 and 3.5 ms) *)
}

let workloads =
  [
    { name = "snort-ids"; kind = Scan; suite = "Snort"; scale = 4; alphabet = Text;
      embed_per_mille = 2; stream_bytes = 4_096; service_rung = 33 };
    { name = "clamav-bv"; kind = Scan; suite = "ClamAV"; scale = 1; alphabet = Binary;
      embed_per_mille = 12; stream_bytes = 8_192; service_rung = 59 };
    { name = "prosite-hot"; kind = Scan; suite = "Prosite"; scale = 1; alphabet = Protein;
      embed_per_mille = 6; stream_bytes = 49_152; service_rung = 94 };
    { name = "serve-ids"; kind = Serve; suite = "Snort"; scale = 1; alphabet = Text;
      embed_per_mille = 2; stream_bytes = 0; service_rung = 55 };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* The rule set as concrete syntax: what a user hands to [rap serve -e]
   or to [Parser.parse]. *)
let rules w =
  List.map fst (Benchmarks.by_name ~scale:w.scale w.suite).Benchmarks.regexes

(* A literal the rule can match: its first literal run, as the suite
   generators embed. *)
let fragment_of ast =
  let buf = Buffer.create 8 in
  let rec walk = function
    | Ast.Epsilon | Ast.Star _ -> ()
    | Ast.Class cc -> Option.iter (Buffer.add_char buf) (Charclass.choose cc)
    | Ast.Concat (a, b) ->
        walk a;
        walk b
    | Ast.Alt (a, _) -> walk a
    | Ast.Repeat (a, m, _) ->
        for _ = 1 to min m 8 do
          walk a
        done
  in
  walk ast;
  Buffer.contents buf

let fragments rules =
  List.filteri (fun i _ -> i mod 7 = 0) rules
  |> List.map (fun src -> fragment_of (Parser.parse_exn src))
  |> List.filter (fun s -> s <> "")
  |> Array.of_list

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Distributions.int_in rng 0 i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Background noise over the alphabet with rule fragments embedded at
   the workload's rate.  Which fragments are embedded, and how much of
   each (1 to 12 leading bytes), is fixed by the rate and the stream
   length; the seed decides their order, where they land and the noise
   around them.  Fixing the multiset keeps the model's stall cycles --
   dominated by a few long counter activations -- from swinging with the
   seed. *)
let stream w ~fragments ~rng ~bytes =
  let nf = Array.length fragments in
  let embeds = if nf = 0 then 0 else max 1 (bytes * w.embed_per_mille / 1000) in
  let pieces =
    Array.init embeds (fun k ->
        let f = fragments.(k mod nf) in
        String.sub f 0 (min (String.length f) (1 + (k mod 12))))
  in
  shuffle rng pieces;
  let slots = Array.init embeds (fun _ -> Distributions.int_in rng 0 (max 0 (bytes - 1))) in
  Array.sort compare slots;
  let buf = Buffer.create (bytes + 16) in
  let next = ref 0 in
  while Buffer.length buf < bytes do
    if !next < embeds && slots.(!next) <= Buffer.length buf then begin
      Buffer.add_string buf pieces.(!next);
      incr next
    end
    else
      Buffer.add_char buf
        (match w.alphabet with
        | Text -> Distributions.alnum_char rng
        | Binary -> Distributions.hex_byte_char rng
        | Protein -> Distributions.protein_char rng)
  done;
  Buffer.sub buf 0 bytes
