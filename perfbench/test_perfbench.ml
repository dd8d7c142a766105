(* The benchmark's own checks: the self-time arithmetic the per-layer
   breakdown rests on, and that the workload seed alone determines the
   inputs. *)

open Perfbench

let span name start dur = { Spans.name; start_ns = Int64.of_int start; dur_ns = dur; attrs = [] }

(* A query as a traced run sees it: the benchmark's spans around the
   public calls, the program's spans inside them. *)
let query_tree =
  [
    span "bench.query" 0 100;
    span "bench.compile" 1 10;
    span "compile" 2 8;
    span "bench.optimize" 12 78;
    span "query" 13 76;
    span "chain_round" 14 16;
    span "exec_sampled" 15 10;
    span "race_probe" 26 3;
    span "execute_edge" 31 49;
    span "bench.tail" 91 8;
  ]

let self_time_sums_to_root () =
  let timed = Spans.self_times (List.rev query_tree) in
  let layers = Spans.breakdown timed in
  Alcotest.(check int) "root" 100 (Spans.root_ns timed);
  Alcotest.(check int) "layers + unattributed = root" 100
    (List.fold_left (fun acc (_, ns) -> acc + ns) 0 layers);
  Alcotest.(check (list (pair string int)))
    "per layer"
    [
      ("xquery", 18);
      ("core.optimizer", 2 + 11);
      ("core.sampling", 3 + 10 + 3);
      ("joingraph", 49);
      ("unattributed", 100 - 10 - 78 - 8);
    ]
    layers

let pool_lanes_excluded () =
  let s lane =
    {
      Rox_telemetry.Sink.name = "execute_edge";
      start_ns = 5L;
      dur_ns = 3L;
      depth = 1;
      lane;
      attrs = [];
    }
  in
  Alcotest.(check int) "owner lane kept" 1 (List.length (List.filter_map Spans.of_sink [ s 0 ]));
  Alcotest.(check int) "worker lane dropped" 0 (List.length (List.filter_map Spans.of_sink [ s 1 ]))

let seed_stamps_inputs () =
  List.iter
    (fun w ->
      let digest seed = Inputs.digest (Inputs.generate w ~seed ~seconds:10.) in
      let a = digest 1 in
      Alcotest.(check string) (Inputs.name w ^ ": same seed") a (digest 1);
      Alcotest.(check bool) (Inputs.name w ^ ": other seed") false (a = digest 2))
    Inputs.workloads

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "self-time sums to root" `Quick self_time_sums_to_root;
          Alcotest.test_case "pool lanes excluded" `Quick pool_lanes_excluded;
          Alcotest.test_case "seed stamps inputs" `Quick seed_stamps_inputs;
        ] );
    ]
