(* serve-xmark: an in-process [rox serve] (2 worker domains, telemetry and
   flight recorder on, one shared cache) driven over a Unix socket by an
   open-loop generator on two connections.

   Every request is timed from its due time, so a stall on one connection
   charges the requests queued behind it. A nominal fixed-rate phase gives
   the latency percentiles; a ladder of fixed absolute rates then finds
   the highest rate whose p90 stays under [p90_limit_ms] without a growing
   backlog. The ladder stops after its first failing step, whose
   completion rate over its saturated stretch is the server's capacity
   (queries_per_s). *)

open Common
module P = Rox_serve.Protocol
module S = Rox_serve.Server
module Tm = Rox_telemetry.Metrics
module Store = Rox_cache.Store

let workers = 2
let connections = 2

(* Below the hot set's working set (stamped on every run), so repeats hit
   while unique queries keep inserting and evicting. *)
let cache_budget = 400_000
let p90_limit_ms = 100.

type server = { srv : S.t; store : Store.t; listen : Unix.file_descr; acceptor : Thread.t; path : string }

let start engine path =
  let store =
    Store.create ~relation_budget:(cache_budget * 3 / 4) ~estimate_budget:(cache_budget / 4) engine
  in
  let srv = S.create (S.config ~cache:store ~workers engine) in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX path);
  Unix.listen listen 16;
  { srv; store; listen; acceptor = Thread.create (fun () -> S.serve srv listen) (); path }

let stop s =
  S.shutdown s.srv;
  (try Unix.shutdown s.listen Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Thread.join s.acceptor;
  Unix.close s.listen;
  try Unix.unlink s.path with Unix.Unix_error _ -> ()

type conn = { fd : Unix.file_descr; dec : P.decoder; recorder : Spans.recorder }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; dec = P.decoder (); recorder = Spans.recorder () }

let read_reply c =
  match P.read_frame c.fd c.dec with
  | `Frame f -> f
  | `Eof -> failwith "server closed the connection"
  | `Corrupt m -> failwith ("corrupt reply frame: " ^ m)

let close c =
  P.write_frame c.fd (P.render_request P.Quit);
  ignore (read_reply c : string);
  Unix.close c.fd

type sample = {
  q : int;
  due : int64;
  sent : int64;
  finished : int64;
  lag_ns : int;  (** send time past the later of due time and connection free *)
  codec : int;
  traced : bool;
  response : P.response;
}

(* One request over [c]: encode, send, wait, decode. *)
let exchange c text ~traced ~conn =
  let time name f =
    if traced then Spans.time c.recorder ~attrs:[ ("conn", conn) ] name f else f ()
  in
  time "bench.request" (fun () ->
      let t0 = now () in
      let payload = time "bench.encode" (fun () -> P.render_request (P.Query (P.query text))) in
      let enc = elapsed t0 in
      P.write_frame c.fd payload;
      let reply = read_reply c in
      let t1 = now () in
      let response =
        match time "bench.decode" (fun () -> P.parse_response reply) with
        | Ok r -> r
        | Error m -> P.Err (P.Proto, m)
      in
      (response, enc + elapsed t1))

(* Run one phase: each connection thread takes the next arrival, sleeps
   until it is due, and sends it; arrivals past due go out at once. *)
let run_phase conns (phase : Inputs.phase) queries ~trace =
  let n = Array.length phase.Inputs.arrivals in
  let samples = Array.make n None in
  let cursor = Atomic.make 0 in
  let t0 = Int64.add (now ()) 1_000_000L in
  let client k c () =
    let free = ref t0 in
    let rec go () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        let offset, q = phase.Inputs.arrivals.(i) in
        let due = Int64.add t0 (Int64.of_float (offset *. 1e9)) in
        let wait = Int64.sub due (now ()) in
        if Int64.compare wait 0L > 0 then Thread.delay (Int64.to_float wait /. 1e9);
        let sent = now () in
        let traced = trace && i mod 2 = 0 in
        let response, codec = exchange c queries.(q) ~traced ~conn:(string_of_int k) in
        let finished = now () in
        let ready = if Int64.compare due !free > 0 then due else !free in
        samples.(i) <-
          Some
            { q; due; sent; finished; lag_ns = Int64.to_int (Int64.sub sent ready); codec; traced; response };
        free := finished;
        go ()
      end
    in
    go ()
  in
  let threads = List.mapi (fun k c -> Thread.create (client k c) ()) conns in
  List.iter Thread.join threads;
  Array.map Option.get samples

let latency_ms s = Int64.to_float (Int64.sub s.finished s.due) /. 1e6
let start_delay_ms s = Int64.to_float (Int64.sub s.sent s.due) /. 1e6

(* Completions per second from the first due time to the last reply: the
   rate a step achieved. *)
let achieved samples =
  let first = Array.fold_left (fun acc s -> if Int64.compare s.due acc < 0 then s.due else acc) samples.(0).due samples in
  let last = Array.fold_left (fun acc s -> if Int64.compare s.finished acc > 0 then s.finished else acc) 0L samples in
  float_of_int (Array.length samples) /. (Int64.to_float (Int64.sub last first) /. 1e9)

(* Completions per second while the step is saturated: between its
   10th- and 90th-percentile reply times, leaving out the ramp before
   the backlog forms and the drain when one connection is left. *)
let saturated samples =
  let done_ = Array.map (fun s -> s.finished) samples in
  Array.sort Int64.compare done_;
  let n = Array.length done_ in
  let lo = n / 10 and hi = n - 1 - (n / 10) in
  float_of_int (hi - lo) /. (Int64.to_float (Int64.sub done_.(hi) done_.(lo)) /. 1e9)

(* A step holds when its p90 latency is under the limit and the backlog
   does not grow: requests in its last quarter start no later, on
   average, than half the limit after those in its first quarter. *)
let step_holds samples =
  let n = Array.length samples in
  let lat = Array.map latency_ms samples in
  Array.sort compare lat;
  let mean_delay lo hi =
    let s = ref 0. in
    for i = lo to hi - 1 do
      s := !s +. start_delay_ms samples.(i)
    done;
    !s /. float_of_int (max 1 (hi - lo))
  in
  let q = max 1 (n / 4) in
  let growth = mean_delay (n - q) n -. mean_delay 0 q in
  (quantile lat 0.9 <= p90_limit_ms && growth <= p90_limit_ms /. 2., quantile lat 0.9, growth)

(* Run the hot set once against a cache large enough to hold everything:
   the resident bytes are the hot set's working set. *)
let working_set engine (inputs : Inputs.t) =
  let store = Store.create ~relation_budget:(1 lsl 30) ~estimate_budget:(1 lsl 30) engine in
  for q = 0 to inputs.Inputs.hot - 1 do
    let compiled = Rox_xquery.Compile.compile_string engine inputs.Inputs.queries.(q) in
    ignore (Rox_core.Optimizer.answer (Rox_core.Session.create ~cache:store ()) compiled)
  done;
  let st = Store.stats store in
  st.Store.relations.Rox_cache.Lru.bytes + st.Store.estimates.Rox_cache.Lru.bytes

let run (inputs : Inputs.t) ~trace ~socket =
  let recorder = Spans.recorder () in
  let (engine, server, shape), setups =
    repeat_setup 9
      ~release:(fun (_, server, _) -> stop server)
      (fun () ->
        let engine, s = load ?recorder:(if trace then Some recorder else None) inputs.Inputs.docs in
        ((engine, start engine socket, s), s))
  in
  let setup_s, setup_layers = setup_metrics setups in
  let setup_spans = Spans.take recorder in
  let working = working_set engine inputs in
  let queries = inputs.Inputs.queries in
  let conns = List.init connections (fun _ -> connect socket) in
  let warmup = run_phase conns (Option.get inputs.Inputs.warmup) queries ~trace:false in
  let g0 = gc () in
  let nominal = run_phase conns (Option.get inputs.Inputs.nominal) queries ~trace in
  (* The ladder: ascending fixed rates, stopping at the first step that
     does not hold. A failing step below the top is run a second time
     before the ladder stops, so one transient stall on a shared machine
     cannot decide the verdict; the second attempt is the one reported. *)
  let sent = ref [ nominal; warmup ] in
  let attempt phase =
    let samples = run_phase conns phase queries ~trace in
    sent := samples :: !sent;
    (phase.Inputs.rate, samples, step_holds samples)
  in
  let rec ladder acc = function
    | [] -> List.rev acc
    | phase :: rest -> (
      match attempt phase with
      | (_, _, (true, _, _)) as step -> ladder (step :: acc) rest
      | step when rest = [] -> List.rev (step :: acc)
      | _ -> (
        match attempt phase with
        | (_, _, (true, _, _)) as step -> ladder (step :: acc) rest
        | step -> List.rev (step :: acc)))
  in
  let steps = ladder [] inputs.Inputs.ladder in
  let gc_used = gc_diff g0 (gc ()) in
  List.iter close conns;
  let spans = setup_spans @ List.concat_map (fun c -> List.rev (Spans.take c.recorder)) conns in
  stop server;
  (* Every request sent, discarded ladder attempts included. *)
  let all = Array.concat (List.rev !sent) in
  (* Untimed: the reference answer of every distinct query that was sent,
     compared with every answer served for it. *)
  let refs = Hashtbl.create 256 in
  let reference_of q =
    match Hashtbl.find_opt refs q with
    | Some r -> r
    | None ->
      let r = reference engine queries.(q) in
      Hashtbl.add refs q r;
      r
  in
  let failed =
    Array.fold_left
      (fun acc s ->
        match s.response with
        | P.Answer { ids; total; _ } when total = Array.length ids && ids = fst (reference_of s.q) -> acc
        | P.Answer _ -> acc + 1
        | r ->
          prerr_endline ("request failed: " ^ P.render_response r);
          acc + 1)
      0 all
  in
  let distinct = List.sort_uniq compare (Array.to_list (Array.map (fun s -> s.q) all)) in
  let answers = Array.of_list (List.map (fun q -> fst (reference_of q)) distinct) in
  let nominal_lat = sorted_of (List.map latency_ms (Array.to_list nominal)) in
  let nn = Array.length nominal_lat in
  let passing = List.filter (fun (_, _, (ok, _, _)) -> ok) steps in
  let sustained = match List.rev passing with (_, s, _) :: _ -> achieved s | [] -> 0. in
  let capacity =
    match List.find_opt (fun (_, _, (ok, _, _)) -> not ok) steps with
    | Some (_, s, _) -> saturated s
    | None -> ( match List.rev steps with (_, s, _) :: _ -> achieved s | [] -> 0.)
  in
  let work =
    List.filter_map
      (fun s ->
        match s.response with
        | P.Answer { sampling; execution; _ } -> Some (sampling, execution)
        | _ -> None)
      (Array.to_list all)
  in
  let nwork = float_of_int (max 1 (List.length work)) in
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 work in
  let requests = Array.length all in
  (* The GC window starts after the warm-up. *)
  let measured = requests - Array.length warmup in
  let lines =
    [
      Printf.sprintf "input: %d bytes of XML, %d nodes, %d distinct queries sent (%d hot, Zipf s=%.1f, %.0f%% unique)"
        (Inputs.bytes inputs) shape.nodes (List.length distinct) inputs.Inputs.hot Inputs.zipf_s (100. *. Inputs.unique_share);
      Printf.sprintf "cache: hot-set working set %d bytes vs budget %d bytes" working cache_budget;
      Printf.sprintf "answers: digest %s over %d distinct queries (reference: static plan)" (answer_digest answers) (List.length distinct);
      Printf.sprintf "open loop, %d connections, %d workers: nominal %.0f/s, %d requests, p90 is p%.1f"
        connections workers (Option.get inputs.Inputs.nominal).Inputs.rate nn (100. *. tail_q nn);
    ]
    @ List.map
        (fun (rate, s, (ok, p90, growth)) ->
          Printf.sprintf "ladder %6.1f/s: %4d requests, achieved %7.2f/s, p90 %8.2f ms, backlog growth %7.2f ms -> %s"
            rate (Array.length s) (achieved s) p90 growth (if ok then "holds" else "fails"))
        steps
  in
  let end_to_end () =
    [
      metric "setup_s" "s" setup_s;
      metric "query_p50_ms" "ms" (quantile nominal_lat 0.5);
      metric "query_p90_ms" "ms" (quantile nominal_lat (tail_q nn));
      metric "queries_per_s" "1/s" capacity;
      metric "sustained_qps" "1/s" sustained;
      metric "work_units_per_query" "units" (float_of_int (sum (fun (a, b) -> a + b)) /. nwork);
      metric "alloc_mb_per_query" "MB" (alloc_mb gc_used /. float_of_int measured);
      metric "heap_peak_mb" "MB" (heap_peak_mb ());
    ]
  in
  (* Per layer, from the server's own counters (summed over every request
     it executed) and the client's codec timings. The client's round trip
     splits into these layers plus an unattributed rest: socket transfer,
     connection threads, the tail and the flight recorder. *)
  let per_layer () =
    let m = S.metrics server.srv in
    let c (x : Tm.counter) = float_of_int x.Tm.c_value in
    let h (x : Tm.histogram) = float_of_int x.Tm.h_sum in
    let served = Float.max 1. (c m.Tm.queries_served) in
    let sampling_ns = c m.Tm.sampling_time_ns and exec_ns = c m.Tm.execution_time_ns in
    let codec = List.map (fun s -> float_of_int s.codec) (Array.to_list all) in
    let root = Array.fold_left (fun acc s -> acc +. Int64.to_float (Int64.sub s.finished s.sent)) 0. all in
    let layers =
      [
        ("protocol.codec", List.fold_left ( +. ) 0. codec);
        ("serve.queue_wait", h m.Tm.queue_wait_ns);
        ("xquery", h m.Tm.compile_ns);
        ("core.optimizer", h m.Tm.query_ns -. sampling_ns -. exec_ns);
        ("core.sampling", sampling_ns);
        ("joingraph", exec_ns);
      ]
    in
    let layers = layers @ [ ("unattributed", root -. List.fold_left (fun a (_, ns) -> a +. ns) 0. layers) ] in
    let sampling_work = float_of_int (sum fst) and exec_work = float_of_int (sum snd) in
    let ratio a b = if b = 0. then 0. else a /. b in
    let st = Store.stats server.store in
    let rel = st.Store.relations and est = st.Store.estimates in
    let hit_ratio (l : Rox_cache.Lru.stats) =
      ratio (float_of_int l.Rox_cache.Lru.hits) (float_of_int (l.Rox_cache.Lru.hits + l.Rox_cache.Lru.misses))
    in
    let lru f = float_of_int (f rel + f est) in
    let per_request x = x /. float_of_int requests in
    let p50 traced =
      median (List.filter_map (fun s -> if s.traced = traced then Some (latency_ms s) else None) (Array.to_list nominal))
    in
    ( setup_layers
      @ [
          metric "xquery.compile_us" "us" (Tm.quantile m.Tm.compile_ns 0.5 /. 1e3);
          metric "xquery.tail_ms" "ms" (median (List.map (fun q -> float_of_int (snd (reference_of q))) distinct) /. 1e6);
          metric "core.optimizer_self_ms" "ms" (List.assoc "core.optimizer" layers /. served /. 1e6);
          metric "core.sampling_self_ms" "ms" (sampling_ns /. served /. 1e6);
          metric "core.chain_rounds" "count" (c m.Tm.chain_rounds /. served);
          metric "core.sampling_work" "units" (sampling_work /. nwork);
          metric "core.sampling_share_work" "ratio" (ratio sampling_work (sampling_work +. exec_work));
          metric "core.sampling_share_wall" "ratio" (ratio sampling_ns (sampling_ns +. exec_ns));
          metric "core.ns_per_work_sampling" "ns" (ratio sampling_ns sampling_work);
          metric "joingraph.execute_edge_self_ms" "ms" (exec_ns /. served /. 1e6);
          metric "joingraph.edges" "count" (c m.Tm.edges_executed /. served);
          metric "joingraph.pairs" "count" (c m.Tm.pairs_emitted /. served);
          metric "joingraph.rows_materialized" "count" (c m.Tm.rows_materialized /. served);
          metric "joingraph.execution_work" "units" (exec_work /. nwork);
          metric "joingraph.ns_per_work_execution" "ns" (ratio exec_ns exec_work);
          metric "cache.lookups" "count" (per_request (lru (fun l -> l.Rox_cache.Lru.hits + l.Rox_cache.Lru.misses)));
          metric "cache.relation_hit_ratio" "ratio" (hit_ratio rel);
          metric "cache.estimate_hit_ratio" "ratio" (hit_ratio est);
          metric "cache.evictions" "count" (lru (fun l -> l.Rox_cache.Lru.evictions));
          metric "cache.resident_mb" "MB" (lru (fun l -> l.Rox_cache.Lru.bytes) /. 1e6);
          metric "cache.lock_waits" "count" (lru (fun l -> l.Rox_cache.Lru.lock_waits));
          metric "cache.fast_hits" "count" (lru (fun l -> l.Rox_cache.Lru.fast_hits));
          metric "serve.queue_wait_p50_ms" "ms" (Tm.quantile m.Tm.queue_wait_ns 0.5 /. 1e6);
          metric "serve.queue_wait_p90_ms" "ms" (Tm.quantile m.Tm.queue_wait_ns 0.9 /. 1e6);
          metric "serve.rejected" "count" (c m.Tm.admission_rejects);
          metric "serve.coalesced" "count" (c m.Tm.coalesce_hits);
          metric "protocol.codec_us" "us" (median codec /. 1e3);
          metric "telemetry.records" "count"
            (match S.recorder server.srv with
             | Some r -> float_of_int (Rox_telemetry.Recorder.records r)
             | None -> 0.);
          metric "trace.query_ms" "ms" (per_request root /. 1e6);
          metric "trace.unattributed_ms" "ms" (per_request (List.assoc "unattributed" layers) /. 1e6);
        ]
      @ gc_metrics gc_used ~queries:measured
      @ [
          metric "loadgen.lag_p90_ms" "ms"
            (quantile (sorted_of (List.map (fun s -> float_of_int s.lag_ns) (Array.to_list all))) 0.9 /. 1e6);
          metric "trace.overhead_pct" "%" (100. *. ((p50 true /. p50 false) -. 1.));
        ],
      breakdown_lines ~queries:requests ~root_ns:root layers )
  in
  let metrics, lines =
    if trace then
      let metrics, table = per_layer () in
      (metrics, lines @ table)
    else (end_to_end (), lines)
  in
  { attempted = requests; failed; metrics; lines; spans }
