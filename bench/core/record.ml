(* The versioned lidbench record, one per (workload, layer, metric) of a
   run: {schema, workload, layer, metric, value, unit, runs}.  [runs] is
   the number of samples the value summarizes (requests, campaigns,
   set-ups or spans).  A whole run — one process, one workload, one seed —
   is one JSON line of [--out] files, carrying its records, its output
   digest and its correctness tally; [compare] reads those lines back. *)

let schema = 1

type t = {
  workload : string;
  layer : string;
  metric : string;
  value : float;
  unit : string;
  runs : int;
}

let to_json r =
  Lidjson.Obj
    [
      ("schema", Lidjson.Int schema);
      ("workload", Lidjson.String r.workload);
      ("layer", Lidjson.String r.layer);
      ("metric", Lidjson.String r.metric);
      ("value", Lidjson.Float r.value);
      ("unit", Lidjson.String r.unit);
      ("runs", Lidjson.Int r.runs);
    ]

let field name conv j =
  match Option.bind (Lidjson.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "record: missing or ill-typed %S" name)

let str = function Lidjson.String s -> Some s | _ -> None
let int = function Lidjson.Int i -> Some i | _ -> None
let bool = function Lidjson.Bool b -> Some b | _ -> None

let num = function
  | Lidjson.Float f -> Some f
  | Lidjson.Int i -> Some (float_of_int i)
  | _ -> None

let ( let* ) = Result.bind

let check_schema j =
  let* s = field "schema" int j in
  if s = schema then Ok ()
  else Error (Printf.sprintf "record: schema %d, expected %d" s schema)

let of_json j =
  let* () = check_schema j in
  let* workload = field "workload" str j in
  let* layer = field "layer" str j in
  let* metric = field "metric" str j in
  let* value = field "value" num j in
  let* unit = field "unit" str j in
  let* runs = field "runs" int j in
  Ok { workload; layer; metric; value; unit; runs }

type run = {
  run_workload : string;
  seed : int;
  traced : bool;
  digest : string;  (** ordered FNV-1a over every response / report *)
  attempted : int;
  failed : int;
  records : t list;
}

let run_to_json r =
  Lidjson.Obj
    [
      ("schema", Lidjson.Int schema);
      ("workload", Lidjson.String r.run_workload);
      ("seed", Lidjson.Int r.seed);
      ("traced", Lidjson.Bool r.traced);
      ("digest", Lidjson.String r.digest);
      ("attempted", Lidjson.Int r.attempted);
      ("failed", Lidjson.Int r.failed);
      ("records", Lidjson.List (List.map to_json r.records));
    ]

let run_of_json j =
  let* () = check_schema j in
  let* run_workload = field "workload" str j in
  let* seed = field "seed" int j in
  let* traced = field "traced" bool j in
  let* digest = field "digest" str j in
  let* attempted = field "attempted" int j in
  let* failed = field "failed" int j in
  let* records =
    match Lidjson.member "records" j with
    | Some (Lidjson.List rs) ->
        List.fold_right
          (fun r acc ->
            let* acc = acc in
            let* r = of_json r in
            Ok (r :: acc))
          rs (Ok [])
    | _ -> Error "record: missing \"records\""
  in
  Ok { run_workload; seed; traced; digest; attempted; failed; records }

(* Every run line of a [--out] file. *)
let load path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.mapi (fun i l ->
         match Result.bind (Lidjson.parse l) run_of_json with
         | Ok r -> r
         | Error m -> failwith (Printf.sprintf "%s:%d: %s" path (i + 1) m))

let append path r =
  Trace.mkdir_p (Filename.dirname path);
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path
    (fun oc ->
      output_string oc (Lidjson.to_string (run_to_json r));
      output_char oc '\n')
