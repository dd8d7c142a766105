(* Seeded workload inputs: XML text, query lists and arrival schedules.

   Everything the program under test receives is generated here from the
   workload seed (and, for arrival schedules, the run length): the program
   gets XML text to parse, query text to compile and a time at which each
   request is due, nothing else. [digest] fingerprints all of it, so two
   runs with equal digests measured the same inputs. *)

open Rox_workload

type workload = Dblp_combos | Xmark_q1 | Serve_xmark

let workloads = [ Dblp_combos; Xmark_q1; Serve_xmark ]

let name = function
  | Dblp_combos -> "dblp-combos"
  | Xmark_q1 -> "xmark-q1"
  | Serve_xmark -> "serve-xmark"

let of_name s = List.find_opt (fun w -> name w = s) workloads

(* One open-loop phase: requests due at fixed offsets (seconds from the
   phase start) at one absolute rate. *)
type phase = { rate : float; arrivals : (float * int) array  (** due offset, query index *) }

type t = {
  workload : workload;
  seed : int;
  docs : (string * string) list;  (** uri, XML text *)
  queries : string array;
      (** distinct query texts; one-shot workloads run them in this order *)
  groups : string array;  (** per query: the DBLP correlation group, or "" *)
  hot : int;  (** serve-xmark: queries [0, hot) are the popular set *)
  warmup : phase option;  (** serve-xmark: untimed, fills the cache *)
  nominal : phase option;  (** serve-xmark: the fixed-rate latency phase *)
  ladder : phase list;  (** serve-xmark: ascending fixed rates for sustained_qps *)
}

(* ---------- DBLP ---------- *)

(* The Table 3 documents at x10: the generator's own seed is kept at its
   default, because the documents model one fixed dataset. Re-drawing them
   per seed changes which 4-document combinations join non-emptily (209 to
   329 of 831) and moves the heaviest query from about 1 s to 8 s, which
   no fixed-length run can average away. The workload seed draws the
   query list instead. *)
let dblp_params = { Dblp.default_gen with Dblp.scale = 10; reduction = 10 }

let author_counts tree =
  let h = Hashtbl.create 4096 in
  List.iter
    (fun el ->
      let v = Rox_xmldom.Tree.text_content el in
      Hashtbl.replace h v (1 + Option.value ~default:0 (Hashtbl.find_opt h v)))
    (Rox_xmldom.Tree.find_elements tree "author");
  h

(* Size of the full k-way author equi-join: sum over values of the
   product of per-document counts. Zero means the query answer is empty,
   and the paper leaves such combinations out. *)
let joint_size tables =
  match List.sort (fun a b -> compare (Hashtbl.length a) (Hashtbl.length b)) tables with
  | [] -> 0
  | first :: rest ->
    Hashtbl.fold
      (fun v c acc ->
        acc
        + List.fold_left
            (fun p t -> if p = 0 then 0 else p * Option.value ~default:0 (Hashtbl.find_opt t v))
            c rest)
      first 0

let dblp rng =
  let trees =
    Array.map
      (fun v ->
        let sink, get = Sink.tree_builder () in
        ignore (Dblp.emit_venue ~params:dblp_params v sink : int);
        get ())
      Dblp.venues
  in
  let authors = Array.map author_counts trees in
  let index v =
    let rec go i = if Dblp.venues.(i).Dblp.name = v.Dblp.name then i else go (i + 1) in
    go 0
  in
  (* Every non-empty combination of all three correlation groups, each
     with its four documents in a seeded order (the first is the returned
     one), the list itself in seeded order. *)
  let combos =
    Combos.all_combinations Dblp.venues
    |> List.filter (fun (_, vs) -> joint_size (List.map (fun v -> authors.(index v)) vs) > 0)
    |> List.map (fun (g, vs) ->
           let vs = Array.of_list vs in
           Rox_util.Xoshiro.shuffle rng vs;
           (Combos.group_name g, Dblp.query_for (List.map Dblp.uri_of (Array.to_list vs))))
    |> Array.of_list
  in
  Rox_util.Xoshiro.shuffle rng combos;
  let docs =
    Array.to_list
      (Array.mapi
         (fun i v -> (Dblp.uri_of v, Rox_xmldom.Xml_writer.to_string trees.(i)))
         Dblp.venues)
  in
  (docs, Array.map snd combos, Array.map fst combos)

(* ---------- XMark ---------- *)

(* Q1 (current < θ) and Qm1 (current > θ) of the paper's Table 2 family.
   Prices are uniform in [0, 300), so θ sets the selectivity. *)
let q1 op threshold =
  Printf.sprintf
    {|let $d := doc("xmark.xml")
for $o in $d//open_auction[.//current/text() %s %s],
    $p in $d//person[.//province],
    $i in $d//item[./quantity = 1]
where $o//bidder//personref/@person = $p/@id and
      $o//itemref/@item = $i/@id
return $o|}
    op threshold

let max_price = Xmark.default_params.Xmark.max_price

(* [n] thresholds per operator, one drawn uniformly from each of [n]
   equal slices of the price range: every seed covers the whole
   selectivity range, so per-seed cost varies little. *)
let stratified rng n =
  List.concat_map
    (fun op ->
      List.init n (fun i ->
          let u = Rox_util.Xoshiro.float rng in
          q1 op (Printf.sprintf "%.2f" ((float_of_int i +. u) *. max_price /. float_of_int n))))
    [ "<"; ">" ]

let xmark_doc rng factor =
  let tree =
    Xmark.generate_tree ~rng:(Rox_util.Xoshiro.split rng) ~params:(Xmark.scaled factor) ()
  in
  [ ("xmark.xml", Rox_xmldom.Xml_writer.to_string tree) ]

let xmark_factor = 0.5
let xmark_queries_per_op = 64

(* ---------- serve-xmark traffic ---------- *)

let serve_factor = 0.1
let hot_per_op = 12
let unique_share = 0.25
let zipf_s = 1.0

(* The latency phase runs at [nominal_rate]; the ladder probes fixed
   absolute rates, never fractions of a measured saturation. On the 2-core
   reference machine capacity ranged from about 130/s to over 380/s with
   how busy the shared host was, so the ladder steps over that whole band:
   80/s holds and 1280/s overloads on either side of it, and the verdict
   does not flip with the host's momentary speed. Each rate comes with
   its share of the run; the overload step's requests take several times
   its share to drain, and queries_per_s is measured while they do. *)
let nominal_rate = 40.
let ladder_steps = [ (20., 0.1); (80., 0.1); (1280., 0.07) ]

(* Shares of the run before the ladder: a warm-up at the nominal rate that
   fills the cache and is not timed, then the nominal phase. *)
let warmup_share = 0.1
let nominal_share = 0.45

(* The hot set in popularity order. Rank k alternates the operator and
   walks the price strata in steps of 5 (coprime to [hot_per_op]), each
   threshold at its stratum's midpoint, so the most popular queries span
   the whole selectivity range and are the same on every seed: the seed
   moves the document, the unique queries and the request sequence. *)
let hot_set () =
  Array.init (2 * hot_per_op) (fun k ->
      let stratum = k / 2 * 5 mod hot_per_op in
      q1 (if k mod 2 = 0 then "<" else ">")
        (Printf.sprintf "%.2f"
           ((float_of_int stratum +. 0.5) *. max_price /. float_of_int hot_per_op)))

(* Request i's draws come from additive recurrences (Weyl sequences)
   started at seeded offsets instead of independent random numbers, so
   every window of requests holds close to exactly the stated unique
   share, Zipf frequencies and spread of unique thresholds: the seed
   changes which request comes when, not the mix a run measures. *)
let weyl alpha offset i = Float.rem (offset +. (float_of_int i *. alpha)) 1.

(* Irrational steps, one per draw, so the three sequences do not align. *)
let golden = 0.6180339887498949 (* (sqrt 5 - 1) / 2 *)
let silver = 0.41421356237309515 (* sqrt 2 - 1 *)
let bronze = 0.30277563773199456 (* (sqrt 13 - 3) / 2 *)

let serve_traffic rng ~seconds =
  let hot = hot_set () in
  let nhot = Array.length hot in
  (* Zipf popularity by rank. *)
  let weights = Array.init nhot (fun k -> 1. /. (float_of_int (k + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let cumulative =
    let acc = ref 0. in
    Array.map
      (fun w ->
        acc := !acc +. (w /. total);
        !acc)
      weights
  in
  let o_unique = Rox_util.Xoshiro.float rng in
  let o_rank = Rox_util.Xoshiro.float rng in
  let o_threshold = Rox_util.Xoshiro.float rng in
  let queries = ref (List.rev (Array.to_list hot)) in
  let count = ref nhot in
  let drawn = ref 0 and uniques = ref 0 in
  let seen = Hashtbl.create 256 in
  let max_milli = int_of_float (max_price *. 1000.) in
  (* Unique queries alternate the operator and carry three-decimal
     thresholds whose last digit is non-zero, so none repeats a hot
     (two-decimal) one or another unique. *)
  let unique () =
    let j = !uniques in
    incr uniques;
    let op = if j mod 2 = 0 then "<" else ">" in
    let rec fresh milli =
      if milli mod 10 = 0 || Hashtbl.mem seen (op, milli) then fresh ((milli mod (max_milli - 1)) + 1)
      else milli
    in
    let milli = fresh (1 + int_of_float (weyl bronze o_threshold j *. float_of_int (max_milli - 1))) in
    Hashtbl.add seen (op, milli) ();
    queries := q1 op (Printf.sprintf "%.3f" (float_of_int milli /. 1000.)) :: !queries;
    incr count;
    !count - 1
  in
  let draw () =
    let i = !drawn in
    incr drawn;
    if weyl golden o_unique i < unique_share then unique ()
    else begin
      let u = weyl silver o_rank i in
      let rec find k = if k >= nhot - 1 || u <= cumulative.(k) then k else find (k + 1) in
      find 0
    end
  in
  let phase rate share =
    let n = max 1 (int_of_float (rate *. share *. seconds)) in
    { rate; arrivals = Array.init n (fun i -> (float_of_int i /. rate, draw ())) }
  in
  let warmup = phase nominal_rate warmup_share in
  let nominal = phase nominal_rate nominal_share in
  let ladder = List.map (fun (rate, share) -> phase rate share) ladder_steps in
  (Array.of_list (List.rev !queries), nhot, warmup, nominal, ladder)

(* ---------- entry point ---------- *)

let generate workload ~seed ~seconds =
  let rng = Rox_util.Xoshiro.create seed in
  match workload with
  | Dblp_combos ->
    let docs, queries, groups = dblp rng in
    { workload; seed; docs; queries; groups; hot = 0; warmup = None; nominal = None; ladder = [] }
  | Xmark_q1 ->
    let docs = xmark_doc rng xmark_factor in
    let queries = Array.of_list (stratified rng xmark_queries_per_op) in
    Rox_util.Xoshiro.shuffle rng queries;
    {
      workload; seed; docs; queries;
      groups = Array.make (Array.length queries) "";
      hot = 0; warmup = None; nominal = None; ladder = [];
    }
  | Serve_xmark ->
    let docs = xmark_doc rng serve_factor in
    let queries, hot, warmup, nominal, ladder = serve_traffic rng ~seconds in
    {
      workload; seed; docs; queries;
      groups = Array.make (Array.length queries) "";
      hot; warmup = Some warmup; nominal = Some nominal; ladder;
    }

let digest t =
  let b = Buffer.create 4096 in
  let add s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  List.iter
    (fun (uri, text) ->
      add uri;
      add (Digest.string text))
    t.docs;
  Array.iter add t.queries;
  List.iter
    (fun p ->
      add (Printf.sprintf "%h" p.rate);
      Array.iter (fun (due, q) -> add (Printf.sprintf "%h/%d" due q)) p.arrivals)
    (Option.to_list t.warmup @ Option.to_list t.nominal @ t.ladder);
  Digest.to_hex (Digest.string (Buffer.contents b))

let bytes t = List.fold_left (fun acc (_, text) -> acc + String.length text) 0 t.docs
