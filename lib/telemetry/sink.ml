type span = {
  name : string;
  start_ns : int64;
  dur_ns : int64;
  depth : int;
  lane : int;
  attrs : (string * string) list;
}

type chain_path = {
  label : string;
  via : string;
  cost : float;
  sf : float;
}

type event =
  | Vertex_initialized of { vertex : int; card : int }
  | Edge_weighted of { edge : int; weight : float }
  | Chain_started of { source : int; min_edge : int }
  | Chain_round of { round : int; cutoff : int; paths : chain_path list }
  | Chain_chosen of {
      edges : int list;
      trigger : [ `Stopping_condition | `Exhausted | `Single_edge ];
    }
  | Edge_executed of { edge : int; order : int; pairs : int; rel_rows : int }
  | Cache_lookup of { edge : int; store : [ `Relation | `Estimate ]; hit : bool }
  | Truncated of { dropped : int }

(* One buffer entry: a closed span with the event it carries, if any, or
   an event no span carries. *)
type entry =
  | Span of span * event option
  | Event of event

type t = {
  is_enabled : bool;
  cap : int;
  metrics : Metrics.t;
  mutable rev_entries : entry list;
  mutable n_entries : int;
  mutable n_spans : int;
  mutable n_dropped : int;
  mutable live : int;
}

let default_cap = 65_536

let create ?(cap = default_cap) ~enabled () =
  {
    is_enabled = enabled;
    cap = max 1 cap;
    metrics = Metrics.create ();
    rev_entries = [];
    n_entries = 0;
    n_spans = 0;
    n_dropped = 0;
    live = 0;
  }

let null () = create ~enabled:false ()
let enabled t = t.is_enabled
let metrics t = t.metrics
let span_count t = t.n_spans
let dropped t = t.n_dropped
let depth t = t.live

let reset t =
  t.rev_entries <- [];
  t.n_entries <- 0;
  t.n_spans <- 0;
  t.n_dropped <- 0

(* True (and the drop counted) when the buffer has no room left. *)
let full t =
  if t.n_entries < t.cap then false
  else begin
    t.n_dropped <- t.n_dropped + 1;
    Metrics.incr t.metrics.Metrics.spans_dropped;
    true
  end

let push t entry =
  t.rev_entries <- entry :: t.rev_entries;
  t.n_entries <- t.n_entries + 1

let close t name start depth attrs record event =
  let dur = Int64.sub (Clock.now_ns ()) start in
  (match record with
   | None -> ()
   | Some r -> r t.metrics (Int64.to_int dur));
  if not (full t) then begin
    let attrs = match attrs with None -> [] | Some f -> f () in
    let event = match event with None -> None | Some f -> Some (f ()) in
    push t (Span ({ name; start_ns = start; dur_ns = dur; depth; lane = 0; attrs }, event));
    t.n_spans <- t.n_spans + 1
  end

let span t attrs record event name f =
  if not t.is_enabled then f ()
  else begin
    let start = Clock.now_ns () in
    let depth = t.live in
    t.live <- depth + 1;
    match f () with
    | x ->
      t.live <- depth;
      close t name start depth attrs record
        (match event with None -> None | Some ev -> Some (fun () -> ev x));
      x
    | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      t.live <- depth;
      close t name start depth attrs record None;
      Printexc.raise_with_backtrace exn bt
  end

let with_span t ?attrs ?record name f = span t attrs record None name f

let with_event_span t ~attrs ~record ~event name f =
  span t (Some attrs) (Some record) (Some event) name f

let emit t ev = if t.is_enabled && not (full t) then push t (Event ev)

let note_cache_lookup t ~edge ~store ~hit =
  if t.is_enabled then begin
    let m = t.metrics in
    Metrics.incr
      (match (store, hit) with
       | `Relation, true -> m.Metrics.relation_cache_hits
       | `Relation, false -> m.Metrics.relation_cache_misses
       | `Estimate, true -> m.Metrics.estimate_cache_hits
       | `Estimate, false -> m.Metrics.estimate_cache_misses);
    emit t (Cache_lookup { edge; store; hit })
  end

(* Folding the newest-first buffer while consing yields oldest-first. *)
let spans t =
  List.fold_left
    (fun acc -> function Span (s, _) -> s :: acc | Event _ -> acc)
    [] t.rev_entries

let spans_chronological t =
  List.sort
    (fun a b ->
      match Int64.compare a.start_ns b.start_ns with
      | 0 -> compare a.depth b.depth
      | c -> c)
    (spans t)

let events t =
  let evs =
    List.fold_left
      (fun acc -> function
        | Span (_, Some ev) | Event ev -> ev :: acc
        | Span (_, None) -> acc)
      [] t.rev_entries
  in
  if t.n_dropped > 0 then evs @ [ Truncated { dropped = t.n_dropped } ] else evs

let execution_order t =
  List.filter_map
    (function Edge_executed { edge; _ } -> Some edge | _ -> None)
    (events t)

let chain_rounds t =
  List.filter_map
    (function
      | Chain_round { round; cutoff; paths } -> Some (round, cutoff, paths)
      | _ -> None)
    (events t)

let count_lookups ?store ~hits_only t =
  List.fold_left
    (fun n -> function
      | Cache_lookup { store = s; hit; _ }
        when (hit || not hits_only)
             && (match store with None -> true | Some wanted -> s = wanted) ->
        n + 1
      | _ -> n)
    0 (events t)

let cache_hits ?store t = count_lookups ?store ~hits_only:true t
let cache_lookups ?store t = count_lookups ?store ~hits_only:false t

let edge_timings t =
  List.fold_left
    (fun acc -> function
      | Span (s, Some (Edge_executed { edge; _ })) -> (edge, Int64.to_int s.dur_ns) :: acc
      | _ -> acc)
    [] t.rev_entries
