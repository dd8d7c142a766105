(* One benchmark run: [main.exe --workload NAME --seed N --seconds S
   --trace 0|1]. Prints the input stamp, the answer digest and every
   metric by name with its unit, then one JSON object as the last line.
   Exits 1 when any answer is wrong, 2 on bad arguments. *)

open Perfbench

let end_to_end =
  [ "setup_s"; "query_p50_ms"; "query_p90_ms"; "queries_per_s"; "sustained_qps";
    "work_units_per_query"; "alloc_mb_per_query"; "heap_peak_mb" ]

(* Every workload reports every per-layer metric; a layer a workload does
   not exercise reads 0 (see README.md). *)
let per_layer =
  [ ("xmldom.parse_s", "s"); ("shred.of_tree_s", "s"); ("storage.index_s", "s");
    ("xquery.compile_us", "us"); ("xquery.tail_ms", "ms");
    ("core.optimizer_self_ms", "ms"); ("core.sampling_self_ms", "ms");
    ("core.chain_rounds", "count"); ("core.race_probes", "count");
    ("core.sampling_work", "units"); ("core.sampling_share_work", "ratio");
    ("core.sampling_share_wall", "ratio"); ("core.ns_per_work_sampling", "ns");
    ("joingraph.execute_edge_self_ms", "ms"); ("joingraph.edges", "count");
    ("joingraph.pairs", "count"); ("joingraph.rows_materialized", "count");
    ("joingraph.execution_work", "units"); ("joingraph.ns_per_work_execution", "ns");
    ("algebra.step_child_ms", "ms"); ("algebra.step_descendant_ms", "ms");
    ("algebra.step_attribute_ms", "ms"); ("algebra.step_other_ms", "ms");
    ("algebra.value_join_ms", "ms"); ("algebra.step_share", "ratio");
    ("algebra.value_join_share", "ratio");
    ("cache.lookups", "count"); ("cache.relation_hit_ratio", "ratio");
    ("cache.estimate_hit_ratio", "ratio"); ("cache.evictions", "count");
    ("cache.resident_mb", "MB"); ("cache.lock_waits", "count"); ("cache.fast_hits", "count");
    ("serve.queue_wait_p50_ms", "ms"); ("serve.queue_wait_p90_ms", "ms");
    ("serve.rejected", "count"); ("serve.coalesced", "count");
    ("protocol.codec_us", "us"); ("telemetry.records", "count");
    ("gc.minor_mwords", "Mwords"); ("gc.promoted_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("loadgen.lag_p90_ms", "ms"); ("trace.overhead_pct", "%");
    ("trace.query_ms", "ms"); ("trace.unattributed_ms", "ms") ]

let usage () =
  prerr_endline
    "usage: main.exe --workload dblp-combos|xmark-q1|serve-xmark --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = match Inputs.of_name (get "workload") with Some w -> w | None -> usage () in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  (workload, int "seed", float_of_int seconds, trace)

let () =
  let workload, seed, seconds, trace = parse_args () in
  let out = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let inputs = Inputs.generate workload ~seed ~seconds in
  Printf.printf "workload %s, seed %d, %.0f s, trace %b\n" (Inputs.name workload) seed seconds trace;
  Printf.printf "input digest %s\n%!" (Inputs.digest inputs);
  let o =
    match workload with
    | Inputs.Dblp_combos | Inputs.Xmark_q1 -> Oneshot.run inputs ~seconds ~trace
    | Inputs.Serve_xmark ->
      Serve_load.run inputs ~trace
        ~socket:(Filename.concat out (Printf.sprintf "serve-%d.sock" (Unix.getpid ())))
  in
  List.iter print_endline o.Common.lines;
  let find name = List.find_opt (fun m -> m.Common.mname = name) o.Common.metrics in
  let reported =
    if trace then
      List.map
        (fun (name, unit_) -> Option.value (find name) ~default:(Common.metric name unit_ 0.))
        per_layer
    else List.map (fun name -> Option.get (find name)) end_to_end
  in
  List.iter
    (fun m -> Printf.printf "  %-34s %14.6g %s\n" m.Common.mname m.Common.value m.Common.unit_)
    reported;
  if trace then begin
    let path =
      Filename.concat out (Printf.sprintf "spans-%s-%d.json" (Inputs.name workload) seed)
    in
    Spans.write_chrome path o.Common.spans;
    Printf.printf "span file %s (%d spans)\n" path (List.length o.Common.spans)
  end;
  let correct = o.Common.failed = 0 in
  if not correct then
    Printf.printf "error_rate %g: %d of %d attempted queries failed or answered wrongly\n"
      (float_of_int o.Common.failed /. float_of_int (max 1 o.Common.attempted))
      o.Common.failed o.Common.attempted;
  print_endline
    (Rox_util.Minijson.to_string
       (Rox_util.Minijson.Obj
          [
            ("correct", Rox_util.Minijson.Bool correct);
            ("attempted", Rox_util.Minijson.Num (float_of_int o.Common.attempted));
            ("failed", Rox_util.Minijson.Num (float_of_int o.Common.failed));
            ( "metrics",
              Rox_util.Minijson.Obj
                (List.map
                   (fun m ->
                     ( m.Common.mname,
                       Rox_util.Minijson.Obj
                         [ ("value", Rox_util.Minijson.Num m.Common.value);
                           ("unit", Rox_util.Minijson.Str m.Common.unit_) ] ))
                   reported) );
          ]));
  exit (if correct then 0 else 1)
