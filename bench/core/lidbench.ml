(* lidbench — the repository's benchmark.  See README.md beside this
   file for the workloads, the metrics and how to read them.

     lidbench run WORKLOAD [--seed N] [--seconds S] [--trace 0|1|FILE] [--out FILE]
     lidbench run --workload WORKLOAD ...
     lidbench all [--seed N] [--seconds S] [--trace 0|1|FILE] [--out FILE]
     lidbench compare OLD NEW

   [run] measures one workload in this process and prints one record per
   metric, then, as its last line, one JSON object with the keys
   [correct], [attempted], [failed] and [metrics] (the end-to-end
   metrics, or with tracing on the per-layer ones).  It exits 1 when any
   operation failed or failed a correctness check.  [all] runs every
   workload, each in its own process. *)

open Lidbench

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("lidbench: " ^ m);
      exit 2)
    fmt

type opts = {
  workload : string option;
  seed : int;
  seconds : int;
  trace : string;  (** "0", "1", or the span file *)
  out : string option;
}

let parse_opts args =
  let int what v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> n
    | _ -> die "bad %s %S" what v
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with workload = Some w } rest
    | "--seed" :: n :: rest -> go { o with seed = int "seed" n } rest
    | "--seconds" :: n :: rest -> go { o with seconds = int "seconds" n } rest
    | "--trace" :: t :: rest -> go { o with trace = t } rest
    | "--out" :: f :: rest -> go { o with out = Some f } rest
    | w :: rest when o.workload = None && not (String.starts_with ~prefix:"-" w)
      ->
        go { o with workload = Some w } rest
    | x :: _ -> die "unexpected argument %S" x
  in
  go
    {
      workload = None;
      seed = Workload.default_seed;
      seconds = Workload.run_seconds;
      trace = "0";
      out = None;
    }
    args

(* ------------------------------------------------------------------ *)
(* One workload, in this process.                                       *)

let metric_unit name =
  match Workload.find_metric name with Some m -> m.unit | None -> "?"

let print_record (r : Record.t) =
  Printf.printf "%-17s %-8s %-28s %16.6f %-6s (%d)\n" r.workload r.layer r.metric
    r.value r.unit r.runs

(* The latency/throughput trio over one time per operation.  With one
   client, throughput is the round's work over the sum of its
   operations' times. *)
let timing w ~ns ~round_work ~rounds =
  let ms = Array.map Clock.ms_of_ns ns in
  let n = Array.length ms in
  let total_s = Clock.s_of_ns (max 1 (Array.fold_left ( + ) 0 ns)) in
  [
    ("p50_ms", Stats.percentile 50. ms, n);
    ("tail_ms", Stats.percentile (Workload.tail_pct w) ms, n);
    ("work_per_s", float_of_int round_work /. total_s, rounds);
  ]

let run_one w o =
  let name = Workload.name w in
  let tracing = o.trace <> "0" in
  let setup_ns, (outcome : Outcome.t), traced_pass =
    if Workload.is_serve w then
      let requests, setup_ns, outcome =
        Serve_load.run w ~seed:o.seed ~seconds:o.seconds
      in
      ( setup_ns,
        outcome,
        fun tr ->
          let latencies, layers = Serve_load.traced tr requests in
          (latencies, Array.length latencies, [], layers) )
    else
      let campaigns, setup_ns, outcome =
        Campaign_load.run w ~seed:o.seed ~seconds:o.seconds
      in
      (setup_ns, outcome, fun tr -> Campaign_load.traced tr campaigns)
  in
  let peak_rss_mb = Outcome.peak_rss_mb () in
  let setup_s = Array.of_list (List.map Clock.s_of_ns setup_ns) in
  let record layer (metric, value, runs) =
    {
      Record.workload = name;
      layer;
      metric;
      value;
      unit = metric_unit metric;
      runs;
    }
  in
  let failed = List.length outcome.failures in
  let e2e =
    List.map (record "e2e")
      ((("setup_s", Stats.median setup_s, Array.length setup_s)
       :: timing w ~ns:(Outcome.best outcome) ~round_work:outcome.round_work
            ~rounds:(List.length outcome.round_ns))
      @ [
          ("peak_rss_mb", peak_rss_mb, 1);
          ( "error_frac",
            float_of_int failed /. float_of_int (max 1 outcome.attempted),
            outcome.attempted );
        ])
  in
  let ops = Array.length (Outcome.best outcome) and tail = Workload.tail_pct w in
  Printf.printf
    "%s seed %d: %d round(s) of %d operation(s), digest %s; tail_ms is p%g, \
     %d sample(s) beyond%s\n"
    name o.seed
    (List.length outcome.round_ns)
    ops
    (Outcome.digest_hex outcome.digest)
    tail (Stats.beyond tail ops)
    (if Stats.tail_ok tail ops then "" else " (fewer than 10)");
  List.iter print_record e2e;
  let traced_records, traced_attempted, traced_failures =
    if not tracing then ([], 0, [])
    else begin
      let tr = Trace.create () in
      let latencies_ns, work, failures, layers = traced_pass tr in
      let file =
        if o.trace = "1" then
          Printf.sprintf "_lidbench/spans/%s-seed%d.jsonl" name o.seed
        else o.trace
      in
      Trace.write file (Trace.spans tr);
      let traced_e2e =
        List.map (record "traced")
          (timing w ~ns:latencies_ns ~round_work:work ~rounds:1)
      in
      (* The traced pass is one round, so it is set against the median
         untraced round, not against the best-of-rounds figures. *)
      let untraced_round =
        List.map
          (fun ns -> timing w ~ns ~round_work:outcome.round_work ~rounds:1)
          outcome.round_ns
      in
      let values = layers @ List.map (fun (m, v) -> (m, v, 1)) outcome.gc in
      let per_layer =
        List.map
          (fun (m : Workload.metric) ->
            let value, runs =
              match List.find_opt (fun (n, _, _) -> n = m.metric) values with
              | Some (_, v, runs) -> (v, runs)
              | None -> (0., 0)
            in
            record m.layer (m.metric, value, runs))
          Workload.per_layer
      in
      List.iter print_record (traced_e2e @ per_layer);
      List.iter
        (fun (t : Record.t) ->
          let u =
            Stats.median
              (Array.of_list
                 (List.map
                    (fun r ->
                      let _, v, _ = List.find (fun (m, _, _) -> m = t.metric) r in
                      v)
                    untraced_round))
          in
          Printf.printf
            "tracing overhead %-10s %+.1f%% (median untraced round %.6g, traced \
             round %.6g %s)\n"
            t.metric (100. *. ((t.value /. u) -. 1.)) u t.value t.unit)
        traced_e2e;
      Printf.printf "spans written to %s\n" file;
      (traced_e2e @ per_layer, Array.length latencies_ns, failures)
    end
  in
  let failures = outcome.failures @ traced_failures in
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) failures;
  let attempted = outcome.attempted + traced_attempted in
  let failed = List.length failures in
  let records = e2e @ traced_records in
  Option.iter
    (fun out ->
      Record.append out
        {
          Record.run_workload = name;
          seed = o.seed;
          traced = tracing;
          digest = Outcome.digest_hex outcome.digest;
          attempted;
          failed;
          records;
        })
    o.out;
  let reported =
    if tracing then
      List.filter (fun (r : Record.t) -> r.layer <> "e2e" && r.layer <> "traced") records
    else
      List.filter
        (fun (r : Record.t) ->
          List.exists (fun (m : Workload.metric) -> m.metric = r.metric) Workload.end_to_end)
        e2e
  in
  let finite x = if Float.is_finite x then x else 0. in
  print_endline
    (Lidjson.to_string
       (Lidjson.Obj
          [
            ("correct", Lidjson.Bool (failures = []));
            ("attempted", Lidjson.Int attempted);
            ("failed", Lidjson.Int failed);
            ( "metrics",
              Lidjson.Obj
                (List.map
                   (fun (r : Record.t) ->
                     ( r.metric,
                       Lidjson.Obj
                         [
                           ("value", Lidjson.Float (finite r.value));
                           ("unit", Lidjson.String r.unit);
                         ] ))
                   reported) );
          ]));
  if failures = [] then 0 else 1

let workload_of o =
  match o.workload with
  | None -> die "run: name a workload (%s)" (String.concat ", " (List.map Workload.name Workload.all))
  | Some s -> (
      match Workload.of_name s with
      | Some w -> w
      | None -> die "unknown workload %S" s)

(* Each workload in its own process: this executable, [run]. *)
let run_all o =
  List.fold_left
    (fun status w ->
      let trace =
        if o.trace = "0" || o.trace = "1" then o.trace
        else o.trace ^ "." ^ Workload.name w
      in
      let args =
        [ Sys.executable_name; "run"; Workload.name w; "--seed"; string_of_int o.seed;
          "--seconds"; string_of_int o.seconds; "--trace"; trace ]
        @ match o.out with Some f -> [ "--out"; f ] | None -> []
      in
      flush stdout;
      let pid =
        Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
          Unix.stdout Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> status
      | _, _ -> 1)
    0 Workload.all

let () =
  let code =
    match List.tl (Array.to_list Sys.argv) with
    | "run" :: args ->
        let o = parse_opts args in
        run_one (workload_of o) o
    | "all" :: args -> run_all (parse_opts args)
    | [ "compare"; old_file; new_file ] ->
        Compare.run Format.std_formatter ~old_runs:(Record.load old_file)
          ~new_runs:(Record.load new_file)
    | _ ->
        die
          "usage: lidbench run WORKLOAD [--seed N] [--seconds S] [--trace \
           0|1|FILE] [--out FILE] | all [...] | compare OLD NEW"
  in
  exit code
