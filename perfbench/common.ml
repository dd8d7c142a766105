(* Shared measurement plumbing: set-up, reference answers, percentiles,
   GC snapshots and the metric list every workload fills in. *)

open Rox_storage

let now = Rox_telemetry.Clock.now_ns
let elapsed = Rox_telemetry.Clock.elapsed_ns
let seconds_since t0 = float_of_int (elapsed t0) /. 1e9

type metric = { mname : string; value : float; unit_ : string }

let metric mname unit_ value = { mname; value; unit_ }

(* ---------- percentiles ---------- *)

(* Nearest-rank quantile of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* The tail percentile a timing is reported at: p90, or lower when fewer
   than ten samples would lie beyond p90 — the highest percentile that
   still has ten samples past it. *)
let tail_q n = if n <= 10 then 0.5 else Float.min 0.9 (float_of_int (n - 10) /. float_of_int n)

let sorted_of xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = quantile (sorted_of xs) 0.5

(* ---------- set-up: the timed path from XML text to an indexed engine ---------- *)

type setup = { parse_ns : int; shred_ns : int; index_ns : int; nodes : int }

let load ?recorder docs =
  let engine = Engine.create () in
  let parse = ref 0 and shred = ref 0 and index = ref 0 and nodes = ref 0 in
  let timed acc name f =
    let t0 = now () in
    let x = match recorder with None -> f () | Some r -> Spans.time r name f in
    acc := !acc + elapsed t0;
    x
  in
  List.iter
    (fun (uri, text) ->
      let tree = timed parse "bench.parse" (fun () -> Rox_xmldom.Xml_parser.parse_string text) in
      let doc =
        timed shred "bench.of_tree" (fun () ->
            Rox_shred.Doc.of_tree ~uri ~qnames:(Engine.qnames engine)
              ~values:(Engine.values engine) tree)
      in
      nodes := !nodes + Rox_shred.Doc.node_count doc;
      ignore (timed index "bench.add_doc" (fun () -> Engine.add_doc engine doc) : Engine.docref))
    docs;
  (engine, { parse_ns = !parse; shred_ns = !shred; index_ns = !index; nodes = !nodes })

(* Repeat a set-up [reps] times and keep the last result. Before each
   repetition, untimed, [release] drops the previous one and a full major
   GC runs, so one repetition's garbage never inflates the next one's
   heap. Returns every repetition's wall time and layer split. *)
let repeat_setup ?(release = ignore) reps f =
  let rec go i prev acc =
    Option.iter release prev;
    Gc.full_major ();
    let t0 = now () in
    let r, layers = f () in
    let acc = (elapsed t0, layers) :: acc in
    if i + 1 >= reps then (r, acc) else go (i + 1) (Some r) acc
  in
  go 0 None []

let setup_metrics runs =
  let med f = median (List.map f runs) in
  ( med (fun (wall, _) -> float_of_int wall /. 1e9),
    [
      metric "xmldom.parse_s" "s" (med (fun (_, l) -> float_of_int l.parse_ns /. 1e9));
      metric "shred.of_tree_s" "s" (med (fun (_, l) -> float_of_int l.shred_ns /. 1e9));
      metric "storage.index_s" "s" (med (fun (_, l) -> float_of_int l.index_ns /. 1e9));
    ] )

(* ---------- reference answers ---------- *)

(* Each distinct query's answer through a different plan than ROX picks:
   the static smallest-input-first order, executed without sampling.
   Returns the answer and the time [Tail.apply] took on the joined
   relation. *)
let reference engine text =
  let compiled = Rox_xquery.Compile.compile_string engine text in
  let graph = compiled.Rox_xquery.Compile.graph in
  let order = Rox_classical.Classical_opt.static_order engine graph in
  let run = Rox_classical.Executor.execute (Rox_core.Session.create ()) engine graph order in
  let t0 = now () in
  let answer = Rox_xquery.Tail.apply compiled.Rox_xquery.Compile.tail run.Rox_classical.Executor.relation in
  (answer, elapsed t0)

let answer_digest answers =
  let b = Buffer.create 4096 in
  Array.iter
    (fun a ->
      Array.iter
        (fun id ->
          Buffer.add_string b (string_of_int id);
          Buffer.add_char b ',')
        a;
      Buffer.add_char b ';')
    answers;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---------- GC ---------- *)

(* [Gc.quick_stat] sums every domain's counters, so server worker domains
   are included; on the one-shot workloads only the main domain runs. *)
type gc = { minor : float; promoted : float; major : float; majors : int }

let gc () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    major = s.Gc.major_words;
    majors = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor = b.minor -. a.minor;
    promoted = b.promoted -. a.promoted;
    major = b.major -. a.major;
    majors = b.majors - a.majors;
  }

let gc_add a b =
  {
    minor = a.minor +. b.minor;
    promoted = a.promoted +. b.promoted;
    major = a.major +. b.major;
    majors = a.majors + b.majors;
  }

let gc_zero = { minor = 0.; promoted = 0.; major = 0.; majors = 0 }

let alloc_mb g = (g.minor +. g.major -. g.promoted) *. float_of_int (Sys.word_size / 8) /. 1e6

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let gc_metrics g ~queries =
  let per x = x /. float_of_int (max 1 queries) in
  [
    metric "gc.minor_mwords" "Mwords" (per g.minor /. 1e6);
    metric "gc.promoted_mwords" "Mwords" (per g.promoted /. 1e6);
    metric "gc.major_collections" "count" (per (float_of_int g.majors));
  ]

(* The traced run's self-time table: each layer's mean per query and its
   share of the query wall time, which the layers add up to exactly
   (whatever no layer owns is the [unattributed] row). *)
let breakdown_lines ~queries ~root_ns layers =
  let per ns = ns /. float_of_int (max 1 queries) /. 1e6 in
  Printf.sprintf "self time per query (%d traced): %.4f ms wall" queries (per root_ns)
  :: List.map
       (fun (layer, ns) ->
         Printf.sprintf "  %-18s %10.4f ms %6.2f%%" layer (per ns)
           (if root_ns = 0. then 0. else 100. *. ns /. root_ns))
       layers
  @ [ Printf.sprintf "  %-18s %10.4f ms" "sum" (per (List.fold_left (fun a (_, ns) -> a +. ns) 0. layers)) ]

(* ---------- what a workload run hands back ---------- *)

type outcome = {
  attempted : int;
  failed : int;  (** wrong answers, errors and refusals *)
  metrics : metric list;  (** end-to-end untraced, per-layer traced *)
  lines : string list;  (** human-readable stamps and digests *)
  spans : Spans.span list;  (** the span file's contents (traced runs) *)
}
