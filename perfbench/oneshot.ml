(* The one-shot workloads (dblp-combos, xmark-q1): one client in a closed
   loop, each query run the way the CLI runs it — compile, a default
   session (cache off), Algorithm 1, the tail — over the distinct query
   list in passes until the run length is spent and every query ran. *)

open Common
open Rox_xquery
module Cost = Rox_algebra.Cost
module Optimizer = Rox_core.Optimizer
module Sink = Rox_telemetry.Sink
module Tm = Rox_telemetry.Metrics

type run = {
  answer : int array;
  compiled : Compile.compiled;
  sampling : int;  (** sampling work units *)
  execution : int;  (** execution work units, before the tail *)
  total : int;  (** sampling + execution, tail included *)
}

let rox ?telemetry ?recorder engine text =
  let time name f = match recorder with None -> f () | Some r -> Spans.time r name f in
  time "bench.query" (fun () ->
      let compiled = time "bench.compile" (fun () -> Compile.compile_string ?telemetry engine text) in
      let session = Rox_core.Session.create ?telemetry () in
      let result = time "bench.optimize" (fun () -> Optimizer.run session compiled) in
      let counter = result.Optimizer.counter in
      let sampling = Cost.read counter Cost.Sampling in
      let execution = Cost.read counter Cost.Execution in
      let answer =
        time "bench.tail" (fun () ->
            Tail.apply ~sanitize:(Rox_core.Session.sanitize session)
              ~meter:(Cost.execution_meter counter) compiled.Compile.tail
              result.Optimizer.relation)
      in
      { answer; compiled; sampling; execution; total = Cost.total counter })

(* Cap on spans kept for the span file (a few MB of JSON). *)
let span_file_cap = 200_000

(* The protocol codec on one request/answer pair: render and parse the
   QUERY payload and the OK reply, as the client and the server do
   between them. Raises when either does not round-trip. *)
let codec_ns text answer ~sampling ~execution =
  let module P = Rox_serve.Protocol in
  let t0 = now () in
  let req = P.parse_request (P.render_request (P.Query (P.query text))) in
  let resp =
    P.parse_response
      (P.render_response
         (P.Answer { ids = answer; total = Array.length answer; sampling; execution }))
  in
  let ns = elapsed t0 in
  (match (req, resp) with
   | Ok (P.Query q), Ok (P.Answer { ids; _ }) when q.P.text = text && ids = answer -> ()
   | _ -> failwith "protocol codec did not round-trip a query and its answer");
  ns

(* The algebra operator behind an edge, for attributing execute_edge time. *)
let op_class (compiled : Compile.compiled) edge =
  match (Rox_joingraph.Graph.edge compiled.Compile.graph edge).Rox_joingraph.Edge.op with
  | Rox_joingraph.Edge.Equijoin -> "value_join"
  | Rox_joingraph.Edge.Step Rox_algebra.Axis.Child -> "step_child"
  | Rox_joingraph.Edge.Step (Rox_algebra.Axis.Descendant | Rox_algebra.Axis.Desc_or_self) ->
    "step_descendant"
  | Rox_joingraph.Edge.Step Rox_algebra.Axis.Attribute -> "step_attribute"
  | Rox_joingraph.Edge.Step _ -> "step_other"

let op_classes = [ "step_child"; "step_descendant"; "step_attribute"; "step_other"; "value_join" ]

(* Totals over the traced executions. *)
type traced = {
  mutable runs : int;
  mutable root_ns : int;
  layer_ns : (string, int) Hashtbl.t;
  op_ns : (string, int) Hashtbl.t;
  mutable compile : int list;
  mutable tail : int list;
  mutable codec : int list;
  mutable chain_rounds : int;
  mutable race_probes : int;
  mutable sampling_work : int;
  mutable execution_work : int;
  mutable edges : int;
  mutable pairs : int;
  mutable rows : int;
  mutable cache_lookups : int;
  mutable kept : Spans.span list;
  mutable kept_count : int;
}

let add tbl k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))
let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)

let absorb tr recorder sink (r : run) =
  let spans = Spans.take recorder @ List.filter_map Spans.of_sink (Sink.spans sink) in
  let timed = Spans.self_times spans in
  tr.runs <- tr.runs + 1;
  tr.root_ns <- tr.root_ns + Spans.root_ns timed;
  List.iter (fun (layer, ns) -> add tr.layer_ns layer ns) (Spans.breakdown timed);
  List.iter
    (fun ((s : Spans.span), self, _) ->
      match s.Spans.name with
      | "execute_edge" ->
        Option.iter
          (fun e -> add tr.op_ns (op_class r.compiled (int_of_string e)) self)
          (Spans.attr s "edge")
      | "race_probe" -> tr.race_probes <- tr.race_probes + 1
      | "bench.compile" -> tr.compile <- s.Spans.dur_ns :: tr.compile
      | "bench.tail" -> tr.tail <- s.Spans.dur_ns :: tr.tail
      | _ -> ())
    timed;
  let m = Sink.metrics sink in
  let c (x : Tm.counter) = x.Tm.c_value in
  tr.chain_rounds <- tr.chain_rounds + c m.Tm.chain_rounds;
  tr.edges <- tr.edges + c m.Tm.edges_executed;
  tr.pairs <- tr.pairs + c m.Tm.pairs_emitted;
  tr.rows <- tr.rows + c m.Tm.rows_materialized;
  tr.cache_lookups <-
    tr.cache_lookups + c m.Tm.relation_cache_hits + c m.Tm.relation_cache_misses
    + c m.Tm.estimate_cache_hits + c m.Tm.estimate_cache_misses;
  tr.sampling_work <- tr.sampling_work + r.sampling;
  tr.execution_work <- tr.execution_work + r.execution;
  if tr.kept_count < span_file_cap then begin
    tr.kept <- List.rev_append spans tr.kept;
    tr.kept_count <- tr.kept_count + List.length spans
  end

let traced_metrics tr =
  let per x = float_of_int x /. float_of_int (max 1 tr.runs) in
  let per_ms x = per x /. 1e6 in
  let layer = get tr.layer_ns in
  let sampling_ns = layer "core.sampling" and edge_ns = layer "joingraph" in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let step_ns = List.fold_left (fun acc k -> acc + get tr.op_ns k) 0 [ "step_child"; "step_descendant"; "step_attribute"; "step_other" ] in
  [
    metric "xquery.compile_us" "us" (median (List.map float_of_int tr.compile) /. 1e3);
    metric "xquery.tail_ms" "ms" (median (List.map float_of_int tr.tail) /. 1e6);
    metric "core.optimizer_self_ms" "ms" (per_ms (layer "core.optimizer"));
    metric "core.sampling_self_ms" "ms" (per_ms sampling_ns);
    metric "core.chain_rounds" "count" (per tr.chain_rounds);
    metric "core.race_probes" "count" (per tr.race_probes);
    metric "core.sampling_work" "units" (per tr.sampling_work);
    metric "core.sampling_share_work" "ratio" (ratio tr.sampling_work (tr.sampling_work + tr.execution_work));
    metric "core.sampling_share_wall" "ratio" (ratio sampling_ns (sampling_ns + edge_ns));
    metric "core.ns_per_work_sampling" "ns" (ratio sampling_ns tr.sampling_work);
    metric "joingraph.execute_edge_self_ms" "ms" (per_ms edge_ns);
    metric "joingraph.edges" "count" (per tr.edges);
    metric "joingraph.pairs" "count" (per tr.pairs);
    metric "joingraph.rows_materialized" "count" (per tr.rows);
    metric "joingraph.execution_work" "units" (per tr.execution_work);
    metric "joingraph.ns_per_work_execution" "ns" (ratio edge_ns tr.execution_work);
  ]
  @ List.map (fun k -> metric ("algebra." ^ k ^ "_ms") "ms" (per_ms (get tr.op_ns k))) op_classes
  @ [
      metric "algebra.step_share" "ratio" (ratio step_ns tr.root_ns);
      metric "algebra.value_join_share" "ratio" (ratio (get tr.op_ns "value_join") tr.root_ns);
      metric "cache.lookups" "count" (per tr.cache_lookups);
      metric "protocol.codec_us" "us" (median (List.map float_of_int tr.codec) /. 1e3);
      metric "trace.query_ms" "ms" (per_ms tr.root_ns);
      metric "trace.unattributed_ms" "ms" (per_ms (layer "unattributed"));
    ]

let run (inputs : Inputs.t) ~seconds ~trace =
  let recorder = Spans.recorder () in
  let reps = match inputs.Inputs.workload with Inputs.Dblp_combos -> 5 | _ -> 9 in
  let (engine, shape), setups =
    repeat_setup reps (fun () ->
        let engine, s = load ?recorder:(if trace then Some recorder else None) inputs.Inputs.docs in
        ((engine, s), s))
  in
  let setup_s, setup_layers = setup_metrics setups in
  let setup_spans = Spans.take recorder in
  let queries = inputs.Inputs.queries in
  let n = Array.length queries in
  (* Untimed: every distinct query's answer through the static plan. *)
  let refs = Array.map (fun q -> fst (reference engine q)) queries in
  let untraced = Array.make n [] and traced_walls = Array.make n [] in
  let allocs = Array.make n [] in
  let work = Array.make n 0 in
  let lags = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let answers = Array.make n [||] in
  let gc_total = ref gc_zero in
  let untraced_runs = ref 0 in
  let tr =
    {
      runs = 0; root_ns = 0; layer_ns = Hashtbl.create 8; op_ns = Hashtbl.create 8;
      compile = []; tail = []; codec = []; chain_rounds = 0; race_probes = 0;
      sampling_work = 0; execution_work = 0; edges = 0; pairs = 0; rows = 0;
      cache_lookups = 0; kept = []; kept_count = 0;
    }
  in
  let t_start = now () in
  (* Passes alternate untraced, traced, untraced, ... when tracing; the
     run ends once [seconds] have passed and a full pass of each kind is
     done. *)
  let full_untraced = ref 0 and full_traced = ref 0 in
  let finished () =
    seconds_since t_start >= seconds && !full_untraced > 0 && ((not trace) || !full_traced > 0)
  in
  let last_end = ref (now ()) in
  let pass = ref 0 in
  while not (finished ()) do
    let traced = trace && !pass mod 2 = 1 in
    let g0 = gc () in
    let i = ref 0 in
    while !i < n && not (finished ()) do
      let q = !i in
      let sink = if traced then Some (Sink.create ~enabled:true ()) else None in
      let g_query = gc () in
      let t0 = now () in
      if not traced then lags := Int64.to_int (Int64.sub t0 !last_end) :: !lags;
      incr attempted;
      (match
         rox ?telemetry:sink ?recorder:(if traced then Some recorder else None) engine queries.(q)
       with
       | r ->
         let wall = elapsed t0 in
         if r.answer <> refs.(q) then incr failed;
         answers.(q) <- r.answer;
         work.(q) <- r.total;
         if traced then begin
           traced_walls.(q) <- wall :: traced_walls.(q);
           absorb tr recorder (Option.get sink) r;
           tr.codec <-
             codec_ns queries.(q) r.answer ~sampling:r.sampling ~execution:r.execution
             :: tr.codec
         end
         else begin
           untraced.(q) <- wall :: untraced.(q);
           allocs.(q) <- alloc_mb (gc_diff g_query (gc ())) :: allocs.(q);
           incr untraced_runs
         end
       | exception e ->
         Printf.eprintf "query %d failed: %s\n%!" q (Printexc.to_string e);
         incr failed;
         ignore (Spans.take recorder : Spans.span list));
      last_end := now ();
      incr i
    done;
    if not traced then gc_total := gc_add !gc_total (gc_diff g0 (gc ()));
    if !i = n then if traced then incr full_traced else incr full_untraced;
    incr pass
  done;
  (* One latency (and allocation) per distinct query: the median of its
     repetitions, so a partly finished last pass does not weight the
     queries it reached. *)
  let per_query samples = List.filter_map (fun xs -> if xs = [] then None else Some (median xs)) (Array.to_list samples) in
  let medians = per_query (Array.map (List.map float_of_int) untraced) in
  let sorted = sorted_of medians in
  let total_s = List.fold_left ( +. ) 0. medians /. 1e9 in
  let qps = float_of_int (List.length medians) /. total_s in
  let nq = Array.length sorted in
  let lines =
    [
      Printf.sprintf "input: %d docs, %d bytes of XML, %d nodes, %d distinct queries" (List.length inputs.Inputs.docs) (Inputs.bytes inputs) shape.nodes n;
      Printf.sprintf "answers: digest %s over %d distinct queries (reference: static plan)" (answer_digest answers) n;
      Printf.sprintf "closed loop, 1 client: %d executions, %d untraced; p90 is p%.1f of %d per-query medians" !attempted !untraced_runs (100. *. tail_q nq) nq;
    ]
    @
    if inputs.Inputs.workload = Inputs.Dblp_combos then
      [ String.concat ", " (List.map (fun g -> Printf.sprintf "%s: %d" g (Array.fold_left (fun a x -> if x = g then a + 1 else a) 0 inputs.Inputs.groups)) [ "2:2"; "3:1"; "4:0" ]) ^ " combinations" ]
    else []
  in
  let end_to_end =
    [
      metric "setup_s" "s" setup_s;
      metric "query_p50_ms" "ms" (quantile sorted 0.5 /. 1e6);
      metric "query_p90_ms" "ms" (quantile sorted (tail_q nq) /. 1e6);
      metric "queries_per_s" "1/s" qps;
      (* One closed-loop client sustains exactly its own completion rate. *)
      metric "sustained_qps" "1/s" qps;
      metric "work_units_per_query" "units" (float_of_int (Array.fold_left ( + ) 0 work) /. float_of_int n);
      metric "alloc_mb_per_query" "MB" (List.fold_left ( +. ) 0. (per_query allocs) /. float_of_int nq);
      metric "heap_peak_mb" "MB" (heap_peak_mb ());
    ]
  in
  let metrics =
    if not trace then end_to_end
    else begin
      (* Tracing overhead: summed per-query medians, traced over untraced,
         on the queries that ran both ways. *)
      let both = List.filter (fun q -> untraced.(q) <> [] && traced_walls.(q) <> []) (List.init n Fun.id) in
      let sum walls = List.fold_left (fun acc q -> acc +. median (List.map float_of_int walls.(q))) 0. both in
      setup_layers @ traced_metrics tr
      @ gc_metrics !gc_total ~queries:!untraced_runs
      @ [
          metric "loadgen.lag_p90_ms" "ms" (quantile (sorted_of (List.map float_of_int !lags)) 0.9 /. 1e6);
          metric "trace.overhead_pct" "%" (100. *. ((sum traced_walls /. sum untraced) -. 1.));
        ]
    end
  in
  let lines =
    if not trace then lines
    else
      lines
      @ breakdown_lines ~queries:tr.runs ~root_ns:(float_of_int tr.root_ns)
          (List.map (fun l -> (l, float_of_int (get tr.layer_ns l))) Spans.layers)
  in
  { attempted = !attempted; failed = !failed; metrics; lines; spans = setup_spans @ List.rev tr.kept }
