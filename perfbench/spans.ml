(* Span trees and per-layer self time.

   The benchmark records its own spans around each public call it makes
   and merges them with the spans the program emits on an enabled
   [Rox_telemetry.Sink]. Both use the same monotonic clock, so nesting is
   recovered from interval containment alone. A span's self time is its
   duration minus the durations of its direct children; summed over a
   tree, self times add up to the root span exactly, which is what lets
   the per-layer breakdown account for every nanosecond of a query. *)

type span = {
  name : string;
  start_ns : int64;
  dur_ns : int;
  attrs : (string * string) list;
}

(* The benchmark's own span buffer. *)
type recorder = { mutable recorded : span list }

let recorder () = { recorded = [] }

let time r ?(attrs = []) name f =
  let start_ns = Rox_telemetry.Clock.now_ns () in
  let x = f () in
  r.recorded <-
    { name; start_ns; dur_ns = Rox_telemetry.Clock.elapsed_ns start_ns; attrs }
    :: r.recorded;
  x

let take r =
  let s = r.recorded in
  r.recorded <- [];
  s

(* Only the owner's call tree (lane 0) nests; pool-worker lanes run
   concurrently with it and would double-count wall time. *)
let of_sink (s : Rox_telemetry.Sink.span) =
  if s.Rox_telemetry.Sink.lane <> 0 then None
  else
    Some
      {
        name = s.Rox_telemetry.Sink.name;
        start_ns = s.Rox_telemetry.Sink.start_ns;
        dur_ns = Int64.to_int s.Rox_telemetry.Sink.dur_ns;
        attrs = s.Rox_telemetry.Sink.attrs;
      }

let end_ns s = Int64.add s.start_ns (Int64.of_int s.dur_ns)

(* [(span, self_ns, depth)] for every span, parents before children.
   Sorting by start (longer first on ties) puts every parent before the
   spans it contains; a stack of open ancestors then finds each span's
   parent as the innermost one whose interval still contains it. *)
let self_times spans =
  let sorted =
    List.stable_sort
      (fun a b ->
        match Int64.compare a.start_ns b.start_ns with
        | 0 -> compare b.dur_ns a.dur_ns
        | c -> c)
      spans
  in
  let open_ = ref [] in
  let out = ref [] in
  List.iter
    (fun s ->
      let rec pop () =
        match !open_ with
        | (p, _) :: rest when Int64.compare (end_ns s) (end_ns p) > 0 ->
          open_ := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      let children = ref 0 in
      (match !open_ with
       | (_, parent_children) :: _ -> parent_children := !parent_children + s.dur_ns
       | [] -> ());
      out := (s, children, List.length !open_) :: !out;
      open_ := (s, children) :: !open_)
    sorted;
  List.rev_map (fun (s, children, depth) -> (s, s.dur_ns - !children, depth)) !out

(* Total wall time of the top-level spans: the time the breakdown must
   account for. *)
let root_ns timed =
  List.fold_left (fun acc (s, _, depth) -> if depth = 0 then acc + s.dur_ns else acc) 0 timed

(* Which layer owns a span's self time. Spans the table does not name —
   the benchmark's own root span, and anything new — are unattributed. *)
let layer_of = function
  | "bench.compile" | "compile" | "bench.tail" -> "xquery"
  | "bench.optimize" | "query" -> "core.optimizer"
  | "chain_round" | "exec_sampled" | "race_probe" -> "core.sampling"
  | "execute_edge" -> "joingraph"
  | _ -> "unattributed"

let layers = [ "xquery"; "core.optimizer"; "core.sampling"; "joingraph"; "unattributed" ]

(* Self time summed per layer, in [layers] order. *)
let breakdown timed =
  List.map
    (fun layer ->
      ( layer,
        List.fold_left
          (fun acc (s, self, _) -> if layer_of s.name = layer then acc + self else acc)
          0 timed ))
    layers

let attr s key = List.assoc_opt key s.attrs

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing load directly. Spans tagged with a
   connection get that connection's thread lane. *)
let write_chrome path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let t0 =
        List.fold_left (fun acc s -> if Int64.compare s.start_ns acc < 0 then s.start_ns else acc)
          (match spans with [] -> 0L | s :: _ -> s.start_ns)
          spans
      in
      let event s =
        Rox_util.Minijson.(
          Obj
            [
              ("name", Str s.name);
              ("ph", Str "X");
              ("pid", Num 1.);
              ("tid", Num (match attr s "conn" with Some c -> 2. +. float_of_string c | None -> 1.));
              ("ts", Num (Int64.to_float (Int64.sub s.start_ns t0) /. 1e3));
              ("dur", Num (float_of_int s.dur_ns /. 1e3));
              ("args", Obj (List.map (fun (k, v) -> (k, Str v)) s.attrs));
            ])
      in
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          output_string oc (Rox_util.Minijson.to_string (event s)))
        spans;
      output_string oc "\n]}\n")
