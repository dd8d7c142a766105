(* End-to-end fuzzing: random documents x random queries. Three independent
   evaluation routes must agree on every instance:

   - the naive navigation evaluator (no join graph, no indices);
   - ROX (run-time optimization, sampling, chain exploration);
   - the fixed-plan executor on a *random permutation* of the edges.

   This exercises the full stack — parser-equivalent ASTs, compilation,
   indices, staircase and value joins, relation maintenance, semijoin
   updates, tail semantics — under shapes no hand-written test anticipates. *)

open Rox_util
open Rox_storage
open Rox_xquery
open Helpers

(* A bushier random document than the XML round-trip generator: more
   repeated tags so steps and joins hit. *)
let random_doc rng =
  let open Rox_xmldom in
  let rec node depth =
    let r = Xoshiro.int rng 100 in
    if depth >= 4 || r < 25 then Tree.Text (Xoshiro.pick rng words)
    else begin
      let tag = Xoshiro.pick rng tags in
      let attrs =
        if Xoshiro.int rng 3 = 0 then [ ("id", Xoshiro.pick rng words) ] else []
      in
      let n = 1 + Xoshiro.int rng 4 in
      Tree.element ~attrs tag (List.init n (fun _ -> node (depth + 1)))
    end
  in
  let n = 2 + Xoshiro.int rng 5 in
  Tree.document (Tree.element "root" (List.init n (fun _ -> node 1)))

(* Random query over the tag alphabet; always includes at least one for
   variable; sometimes a second document and a text-value join. *)
let random_query rng ndocs =
  let path ~var ~doc =
    let base = if doc then Printf.sprintf "doc(\"doc%d.xml\")" (Xoshiro.int rng ndocs) else var in
    let nsteps = 1 + Xoshiro.int rng 2 in
    let steps =
      List.init nsteps (fun _ ->
          let sep = if Xoshiro.bool rng then "//" else "/" in
          let test = Xoshiro.pick rng tags in
          let pred =
            match Xoshiro.int rng 4 with
            | 0 -> Printf.sprintf "[./%s]" (Xoshiro.pick rng tags)
            | 1 -> Printf.sprintf "[.//%s]" (Xoshiro.pick rng tags)
            | _ -> ""
          in
          sep ^ test ^ pred)
    in
    base ^ String.concat "" steps
  in
  let two_vars = Xoshiro.bool rng in
  if two_vars then
    Printf.sprintf
      "for $a in %s,\n    $b in %s\nwhere $a//text() = $b//text()\nreturn $a"
      (path ~var:"" ~doc:true) (path ~var:"" ~doc:true)
  else Printf.sprintf "for $a in %s\nreturn $a" (path ~var:"" ~doc:true)

let shuffled_plan rng graph =
  let edges =
    Array.of_list
      (List.filter
         (fun e -> not (Rox_joingraph.Runtime.is_trivial_edge graph e))
         (Array.to_list (Rox_joingraph.Graph.edges graph)))
  in
  Xoshiro.shuffle rng edges;
  Array.to_list edges

let run_instance seed =
  let rng = Xoshiro.create seed in
  let ndocs = 1 + Xoshiro.int rng 2 in
  let engine = Engine.create () in
  for i = 0 to ndocs - 1 do
    ignore
      (Engine.add_tree engine ~uri:(Printf.sprintf "doc%d.xml" i) (random_doc rng)
        : Engine.docref)
  done;
  let src = random_query rng ndocs in
  match Compile.compile_string engine src with
  | exception Compile.Unsupported _ -> true (* fine: fragment boundary *)
  | compiled ->
    let naive =
      Naive.eval_query engine compiled.Compile.query
    in
    let return_doc =
      (Rox_joingraph.Graph.vertex compiled.Compile.graph
         compiled.Compile.tail.Tail.return_vertex)
        .Rox_joingraph.Vertex.doc_id
    in
    let tag nodes = List.map (fun p -> (return_doc, p)) (Array.to_list nodes) in
    (* Route 1: ROX with a per-instance seed, event sink enabled. *)
    let config =
      { (Rox_core.Session.default_config ()) with Rox_core.Session.seed = seed + 1 }
    in
    let sink = Rox_telemetry.Sink.create ~enabled:true () in
    let session = Rox_core.Session.create ~config ~telemetry:sink () in
    let rox, rox_result = Rox_core.Optimizer.answer session compiled in
    (* Route 2: a random-permutation plan through the classical executor. *)
    let plan = shuffled_plan rng compiled.Compile.graph in
    let planned, _ = Rox_classical.Executor.answer_default compiled plan in
    (* Every legitimate instance must come through the static analysis
       passes without error diagnostics: the graph itself, the replayed
       ROX events, its executed plan, and the shuffled baseline plan. *)
    let graph = compiled.Compile.graph in
    let no_errors diags = not (List.exists Rox_analysis.Diagnostic.is_error diags) in
    let plan_ids = List.map (fun (e : Rox_joingraph.Edge.t) -> e.Rox_joingraph.Edge.id) plan in
    let analysis_clean =
      no_errors (Rox_analysis.Graph_check.check graph)
      && no_errors (Rox_analysis.Trace_check.check graph sink)
      && no_errors
           (Rox_analysis.Plan_check.check graph rox_result.Rox_core.Optimizer.edge_order)
      && no_errors (Rox_analysis.Plan_check.check graph plan_ids)
    in
    tag rox = naive && tag planned = naive && analysis_clean

let prop_fuzz =
  qtest ~count:120 "ROX = random plan = naive on random instances" QCheck.small_int
    run_instance

(* Single known-seed regressions stay fast to debug. *)
let test_fixed_seeds () =
  List.iter
    (fun seed -> check_bool (Printf.sprintf "seed %d" seed) true (run_instance seed))
    [ 1; 2; 3; 17; 99; 12345 ]

let suite =
  [
    prop_fuzz;
    Alcotest.test_case "fixed fuzz seeds" `Quick test_fixed_seeds;
  ]
