(* [lidbench compare OLD NEW]: a report-only comparison of two sets of
   runs (two [--out] files).  Runs are paired in file order per workload;
   for each workload row and metric it prints each side's median and
   quartiles, the share of pairs the new side won, and a verdict:

   - better: the new side wins at least nine tenths of the pairs and the
     medians differ by more than the old side's interquartile distance,
     or every new run reads better than every old run;
   - unresolved: otherwise, when either side's spread (interquartile
     distance over median) exceeds the metric's bound;
   - worse: the new median is worse than the old by more than the bound
     (for per-layer metrics, which have no bound: the mirror of better);
   - unchanged: anything else. *)

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

type judgement = {
  won : float;  (** share of pairs the new side reads better in *)
  verdict : verdict;
}

let judge (m : Workload.metric) ~old_ ~new_ =
  let better a b =
    match m.better with Workload.Lower -> a < b | Workload.Higher -> a > b
  in
  let pairs = min (Array.length old_) (Array.length new_) in
  let count f =
    let c = ref 0 in
    for i = 0 to pairs - 1 do
      if f new_.(i) old_.(i) then incr c
    done;
    float_of_int !c /. float_of_int (max 1 pairs)
  in
  let won = count better and lost = count (fun n o -> better o n) in
  let mo = Stats.median old_ and mn = Stats.median new_ in
  let q1, _, q3 = Stats.quartiles old_ in
  let apart = Float.abs (mn -. mo) > q3 -. q1 in
  let every_better =
    Array.for_all (fun n -> Array.for_all (fun o -> better n o) old_) new_
  in
  let verdict =
    if (won >= 0.9 && apart) || every_better then Better
    else
      match m.bound with
      | None -> if lost >= 0.9 && apart then Worse else Unchanged
      | Some bound ->
          let worse_by =
            let d =
              match m.better with
              | Workload.Lower -> mn -. mo
              | Workload.Higher -> mo -. mn
            in
            if mo = 0. then if d > 0. then infinity else 0.
            else d /. Float.abs mo
          in
          if Float.max (Stats.rel_spread old_) (Stats.rel_spread new_) > bound
          then Unresolved
          else if worse_by > bound then Worse
          else Unchanged
  in
  { won; verdict }

(* Values of one (workload, layer, metric) across a set of runs, in
   file order. *)
let series runs =
  let tbl = Hashtbl.create 64 and keys = ref [] in
  List.iter
    (fun (run : Record.run) ->
      List.iter
        (fun (r : Record.t) ->
          let k = (r.workload, r.layer, r.metric) in
          if not (Hashtbl.mem tbl k) then keys := k :: !keys;
          Hashtbl.add tbl k r.value)
        run.records)
    runs;
  ( List.rev !keys,
    fun k -> Array.of_list (List.rev (Hashtbl.find_all tbl k)) )

(* Digests must agree for every (workload, seed) both sides ran. *)
let digest_mismatches old_runs new_runs =
  let digests runs key =
    List.sort_uniq compare
      (List.filter_map
         (fun (r : Record.run) ->
           if (r.run_workload, r.seed) = key then Some r.digest else None)
         runs)
  in
  List.sort_uniq compare
    (List.map (fun (r : Record.run) -> (r.run_workload, r.seed)) old_runs)
  |> List.filter_map (fun key ->
         let o = digests old_runs key and n = digests new_runs key in
         if n = [] then None
         else
           match List.sort_uniq compare (o @ n) with
           | [ _ ] -> None
           | ds -> Some (key, ds))

let run ppf ~old_runs ~new_runs =
  let keys, old_values = series old_runs in
  let _, new_values = series new_runs in
  Format.fprintf ppf "%-17s %-8s %-28s %26s %26s %6s  %s@." "workload" "layer"
    "metric" "old median [q1, q3]" "new median [q1, q3]" "won" "verdict";
  let quart xs =
    let q1, _, q3 = Stats.quartiles xs in
    Printf.sprintf "%.4g [%.4g, %.4g]" (Stats.median xs) q1 q3
  in
  List.iter
    (fun ((w, layer, metric) as k) ->
      let old_ = old_values k and new_ = new_values k in
      match Workload.find_metric metric with
      | Some m when Array.length new_ > 0 ->
          let j = judge m ~old_ ~new_ in
          Format.fprintf ppf "%-17s %-8s %-28s %26s %26s %5.0f%%  %s@." w layer
            (metric ^ " " ^ m.unit) (quart old_) (quart new_) (100. *. j.won)
            (verdict_to_string j.verdict)
      | _ -> ())
    keys;
  match digest_mismatches old_runs new_runs with
  | [] ->
      Format.fprintf ppf "output digests match@.";
      0
  | bad ->
      List.iter
        (fun ((w, seed), ds) ->
          Format.fprintf ppf "DIGEST MISMATCH %s seed %d: %s@." w seed
            (String.concat " " ds))
        bad;
      1
