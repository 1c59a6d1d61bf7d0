(* lidbench's own arithmetic and contracts: seeded inputs, percentiles,
   self time, compare verdicts, the record schema, and BENCHMARK.json
   agreeing with the metric table the runs report against. *)

open Lidbench
module J = Lidjson

(* ------------------------------------------------------------------ *)
(* Seeded inputs. *)

let stream w seed =
  List.map (fun (r : Workload.request) -> r.line) (Workload.serve_stream w ~seed)

let faults w seed =
  let net = Workload.campaign_net w in
  List.map
    (fun c -> Fault.Campaign.faults_of_config c net)
    (Workload.campaign_configs w ~seed)

let test_seeded_streams () =
  List.iter
    (fun w ->
      let name = Workload.name w in
      Alcotest.(check (list string))
        (name ^ ": same seed, same stream") (stream w 1) (stream w 1);
      Alcotest.(check bool)
        (name ^ ": another seed, another stream")
        false
        (stream w 1 = stream w 2))
    [ Workload.Serve_sweep; Workload.Serve_cold ]

let test_seeded_faults () =
  List.iter
    (fun w ->
      let name = Workload.name w in
      Alcotest.(check bool)
        (name ^ ": same seed, same fault list")
        true
        (faults w 1 = faults w 1);
      Alcotest.(check bool)
        (name ^ ": another seed, another fault list")
        false
        (faults w 1 = faults w 2))
    [ Workload.Campaign_dynamic; Workload.Campaign_noc ]

let test_cold_is_unique () =
  let keys =
    List.map (fun (r : Workload.request) -> r.key) (Workload.serve_cold ~seed:1)
  in
  Alcotest.(check int)
    "every serve-cold request is distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* ------------------------------------------------------------------ *)
(* Percentiles. *)

let test_nearest_rank () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  List.iter
    (fun (p, v) ->
      Alcotest.(check (float 0.)) (Printf.sprintf "p%g of 1..100" p) v
        (Stats.percentile p xs))
    [ (50., 50.); (90., 90.); (99., 99.); (100., 100.); (0., 1.); (1., 1.) ];
  Alcotest.(check (float 0.)) "p50 of 1..3" 2. (Stats.percentile 50. [| 3.; 1.; 2. |]);
  Alcotest.(check (float 0.)) "p90 of 6 is the max" 6.
    (Stats.percentile 90. [| 1.; 2.; 3.; 4.; 5.; 6. |])

let test_tail_rule () =
  Alcotest.(check int) "p99 of 2000 has 20 beyond" 20 (Stats.beyond 99. 2000);
  Alcotest.(check int) "p90 of 240 has 24 beyond" 24 (Stats.beyond 90. 240);
  Alcotest.(check bool) "p99 of 2000 qualifies" true (Stats.tail_ok 99. 2000);
  Alcotest.(check bool) "p99 of 240 does not" false (Stats.tail_ok 99. 240);
  Alcotest.(check bool) "p90 of 240 qualifies" true (Stats.tail_ok 90. 240);
  Alcotest.(check bool) "p90 of 99 does not" false (Stats.tail_ok 90. 99)

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "exclusive quartiles" [ 2.75; 5.5; 8.25 ]
    [ q1; q2; q3 ];
  Alcotest.(check (float 1e-12)) "even median" 5.5
    (Stats.median (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.(check (float 1e-12)) "relative spread" (5.5 /. 5.5)
    (Stats.rel_spread (Array.init 10 (fun i -> float_of_int (i + 1))))

(* ------------------------------------------------------------------ *)
(* Self time. *)

let span id ?(parent = -1) start_ns end_ns =
  { Trace.id; name = Printf.sprintf "s%d" id; start_ns; end_ns; parent; req = 0 }

let test_self_time () =
  let spans =
    [
      span 0 0 100;
      (* overlapping children cover 10..50, a third 60..70: 50 covered *)
      span 1 ~parent:0 10 30;
      span 2 ~parent:0 20 50;
      span 3 ~parent:0 60 70;
      (* a grandchild is its parent's business, not the root's *)
      span 4 ~parent:1 12 28;
      (* a child running past its parent's end is clipped *)
      span 5 0 10;
      span 6 ~parent:5 5 40;
    ]
  in
  let self = List.map (fun ((s : Trace.span), t) -> (s.id, t)) (Trace.self_times spans) in
  List.iter
    (fun (id, expected) ->
      Alcotest.(check int) (Printf.sprintf "self of span %d" id) expected
        (List.assoc id self))
    [ (0, 50); (1, 4); (2, 30); (3, 10); (4, 16); (5, 5); (6, 35) ];
  let by_name = Trace.by_name spans in
  Alcotest.(check (pair int int)) "by name" (1, 50) (Hashtbl.find by_name "s0")

(* ------------------------------------------------------------------ *)
(* Compare verdicts. *)

let metric ?bound better =
  { Workload.metric = "m"; unit = "ms"; better; bound; layer = "e2e"; moves = "" }

let p50 = metric ~bound:0.1 Workload.Lower
let work = metric ~bound:0.1 Workload.Higher

let verdict m old_ new_ =
  Compare.verdict_to_string
    (Compare.judge m ~old_:(Array.of_list old_) ~new_:(Array.of_list new_)).verdict

let test_compare_verdicts () =
  let steady = [ 10.0; 10.1; 9.9; 10.05; 9.95; 10.0; 10.02; 9.98; 10.1; 9.9 ] in
  let faster = List.map (fun x -> x *. 0.8) steady in
  let slower = List.map (fun x -> x *. 1.2) steady in
  let nudged = List.map (fun x -> x *. 1.03) steady in
  Alcotest.(check string) "a clear win" "better" (verdict p50 steady faster);
  Alcotest.(check string) "a clear loss" "worse" (verdict p50 steady slower);
  Alcotest.(check string) "within the bound" "unchanged" (verdict p50 steady nudged);
  Alcotest.(check string) "higher is better for throughput" "better"
    (verdict work steady slower);
  let noisy = [ 5.; 15.; 8.; 12.; 6.; 14.; 9.; 11.; 7.; 13. ] in
  Alcotest.(check string) "spread beyond the bound" "unresolved"
    (verdict p50 noisy (List.map (fun x -> x *. 1.05) noisy));
  Alcotest.(check string) "unbounded per-layer loss" "worse"
    (verdict (metric Workload.Lower) steady slower)

let test_compare_digests () =
  let run seed digest =
    {
      Record.run_workload = "serve-sweep";
      seed;
      traced = false;
      digest;
      attempted = 1;
      failed = 0;
      records = [];
    }
  in
  Alcotest.(check int) "same digests" 0
    (List.length (Compare.digest_mismatches [ run 1 "a"; run 2 "b" ] [ run 1 "a" ]));
  Alcotest.(check int) "a differing digest" 1
    (List.length (Compare.digest_mismatches [ run 1 "a" ] [ run 1 "c" ]))

(* ------------------------------------------------------------------ *)
(* The record schema. *)

let test_record_round_trip () =
  let r =
    {
      Record.workload = "campaign-noc";
      layer = "fault";
      metric = "fault.resim_ms";
      value = 4132.761587;
      unit = "ms";
      runs = 3;
    }
  in
  let back j = J.parse_exn (J.to_string j) in
  Alcotest.(check bool) "record" true (Record.of_json (back (Record.to_json r)) = Ok r);
  let run =
    {
      Record.run_workload = "campaign-noc";
      seed = 2;
      traced = true;
      digest = "00ff00ff00ff00ff";
      attempted = 13;
      failed = 0;
      records = [ r; { r with metric = "fault.replay_ms"; value = 1e-9; runs = 1 } ];
    }
  in
  Alcotest.(check bool) "run" true (Record.run_of_json (back (Record.run_to_json run)) = Ok run);
  Alcotest.(check bool) "another schema is refused" true
    (Result.is_error
       (Record.of_json
          (match Record.to_json r with
          | J.Obj ms ->
              J.Obj (List.map (function "schema", _ -> ("schema", J.Int 0) | m -> m) ms)
          | j -> j)))

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json against the metric table. *)

let benchmark () =
  J.parse_exn (In_channel.with_open_text "../../../BENCHMARK.json" In_channel.input_all)

let member k j = match J.member k j with Some v -> v | None -> Alcotest.failf "no %S" k
let str = function J.String s -> s | _ -> Alcotest.fail "string expected"
let list = function J.List l -> l | _ -> Alcotest.fail "list expected"

let better = function Workload.Lower -> "lower" | Workload.Higher -> "higher"

let test_benchmark_json () =
  let b = benchmark () in
  Alcotest.(check (list string)) "workloads"
    (List.map Workload.name Workload.all)
    (List.map (fun w -> str (member "name" w)) (list (member "workloads" b)));
  Alcotest.(check (list string)) "workload reasons"
    (List.map Workload.why Workload.all)
    (List.map (fun w -> str (member "why" w)) (list (member "workloads" b)));
  Alcotest.(check bool) "run_seconds" true
    (member "run_seconds" b = J.Int Workload.run_seconds);
  let row (m : Workload.metric) =
    [ m.metric; m.unit; better m.better ]
    @ match m.bound with Some x -> [ Printf.sprintf "%g" x ] | None -> []
  in
  let json_row j =
    [ str (member "name" j); str (member "unit" j); str (member "better" j) ]
    @
    match J.member "bound" j with
    | Some (J.Float x) -> [ Printf.sprintf "%g" x ]
    | Some _ -> Alcotest.fail "bound must be a number"
    | None -> []
  in
  Alcotest.(check (list (list string))) "end-to-end metrics"
    (List.map row Workload.end_to_end)
    (List.map json_row (list (member "end_to_end" b)));
  Alcotest.(check (list (list string))) "per-layer metrics"
    (List.map row Workload.per_layer)
    (List.map json_row (list (member "per_layer" b)))

let () =
  Alcotest.run "lidbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "seeded request streams" `Quick test_seeded_streams;
          Alcotest.test_case "seeded fault lists" `Quick test_seeded_faults;
          Alcotest.test_case "serve-cold keys distinct" `Quick test_cold_is_unique;
        ] );
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_nearest_rank;
          Alcotest.test_case "ten samples beyond" `Quick test_tail_rule;
          Alcotest.test_case "exclusive quartiles" `Quick test_quartiles;
        ] );
      ("trace", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ( "compare",
        [
          Alcotest.test_case "verdicts" `Quick test_compare_verdicts;
          Alcotest.test_case "digests" `Quick test_compare_digests;
        ] );
      ( "record",
        [
          Alcotest.test_case "schema round trip" `Quick test_record_round_trip;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json;
        ] );
    ]
