(* The campaign workloads.  One operation is what [lidtool inject --json]
   does: [Campaign.Fault_driver.run ~jobs:2], then [Fault.Campaign.json].
   A round is the workload's six seeded campaigns in order. *)

module Classify = Fault.Classify

type campaign = Fault.Campaign.config * Topology.Network.t

let inject ?(span = fun _ f -> f ()) ((config, net) : campaign) =
  let lanes_used = ref 1 in
  let result =
    span "campaign.driver" (fun () ->
        Campaign.Fault_driver.run ~jobs:Workload.jobs
          ~on_lanes:(fun n _ -> lanes_used := n)
          config net)
  in
  (result, Fault.Campaign.json ~jobs:Workload.jobs ~lanes_used:!lanes_used result)

(* A report must parse, count every fault of the campaign's list, and
   bin each injection exactly once. *)
let check_report ((config, net) : campaign) (result : Fault.Campaign.result) json =
  let expected = List.length (Fault.Campaign.faults_of_config config net) in
  match Lidjson.parse json with
  | Error m -> Some ("unparsable report: " ^ m)
  | Ok j ->
      let binned =
        match Lidjson.member "outcomes" j with
        | Some (Lidjson.Obj counts) ->
            List.fold_left
              (fun acc (_, v) ->
                match v with Lidjson.Int k -> acc + k | _ -> acc)
              0 counts
        | _ -> -1
      in
      if Lidjson.member "injections" j <> Some (Lidjson.Int expected) then
        Some "report does not count every fault"
      else if List.length result.reports <> expected || binned <> expected then
        Some "injections not binned exactly once"
      else None

let fig1_warmup () =
  let result, json =
    inject (Workload.warmup_campaign, Topology.Generators.fig1 ())
  in
  check_report (Workload.warmup_campaign, result.net) result json

(* Set-up: build the net and the seeded configs, run the warm-up.  The
   first set-up is timed from process start. *)
let setup_once w ~seed t0 =
  let net = Workload.campaign_net w in
  let campaigns =
    List.map (fun c -> (c, net)) (Workload.campaign_configs w ~seed)
  in
  let warm = fig1_warmup () in
  (campaigns, Clock.now_ns () - t0, warm)

let fault_lists cs =
  List.map (fun (c, net) -> Fault.Campaign.faults_of_config c net) cs

type round = {
  reports : string list;
  latencies : int list;
  injections : int;
  failures : string list;
  gc : (string * float) list;
}

let timed_round campaigns =
  let gc0 = Gc.quick_stat () in
  let runs =
    List.map
      (fun c ->
        let (result, json), ns = Clock.time (fun () -> inject c) in
        (c, result, json, ns))
      campaigns
  in
  let gc = Outcome.gc_delta gc0 (Gc.quick_stat ()) ~ops:(List.length runs) in
  {
    reports = List.map (fun (_, _, json, _) -> json) runs;
    latencies = List.map (fun (_, _, _, ns) -> ns) runs;
    injections =
      List.fold_left
        (fun a (_, (r : Fault.Campaign.result), _, _) -> a + List.length r.reports)
        0 runs;
    failures =
      List.filter_map
        (fun ((config, _) as c, r, json, _) ->
          Option.map
            (Printf.sprintf "campaign seed %d: %s" config.Fault.Campaign.seed)
            (check_report c r json))
        runs;
    gc;
  }

(* A sampled sub-campaign (two sites per kind) of the round's first
   campaign: the parallel driver must report exactly what the serial
   reference campaign does. *)
let check_sub_campaign campaigns =
  let config, net = List.hd campaigns in
  let config = { config with Fault.Campaign.max_sites_per_kind = 2 } in
  let fast = Campaign.Fault_driver.run ~jobs:Workload.jobs config net in
  let serial = Fault.Campaign.run config net in
  if fast.reports = serial.reports then []
  else [ "sub-campaign: the driver disagrees with the serial campaign" ]

let run w ~seed ~seconds =
  let campaigns, ns0, warm = setup_once w ~seed Clock.process_start_ns in
  let faults = fault_lists campaigns in
  let setup_failures = ref [] in
  let fail_setup = function
    | Some m -> setup_failures := ("set-up warm-up: " ^ m) :: !setup_failures
    | None -> ()
  in
  fail_setup warm;
  let setup () =
    let again, ns, warm = setup_once w ~seed (Clock.now_ns ()) in
    fail_setup warm;
    if fault_lists again <> faults then
      setup_failures :=
        "set-up: the same seed generated a different fault list"
        :: !setup_failures;
    ns
  in
  let setup_ns, rounds =
    Outcome.rounds_with_setups w ~seconds ~setup ~round:(fun () ->
        timed_round campaigns)
  in
  let r1 = List.hd rounds in
  let later_failures =
    List.concat
      (List.mapi
         (fun k r ->
           List.filter_map Fun.id
             (List.map2
                (fun a b ->
                  if a = b then None
                  else Some (Printf.sprintf "round %d: a report differs from round 1" (k + 2)))
                r.reports r1.reports))
         (List.tl rounds))
  in
  let outcome =
    {
      Outcome.round_ns = List.map (fun r -> Array.of_list r.latencies) rounds;
      round_work = r1.injections;
      (* the timed campaigns, the set-up warm-ups and the sub-campaign *)
      attempted = (List.length campaigns * List.length rounds) + Workload.setups + 1;
      failures =
        List.rev !setup_failures
        @ List.concat_map (fun r -> r.failures) rounds
        @ later_failures @ check_sub_campaign campaigns;
      digest = List.fold_left Outcome.digest_fold Outcome.digest_init r1.reports;
      gc = r1.gc;
    }
  in
  (campaigns, ns0 :: setup_ns, outcome)

(* ------------------------------------------------------------------ *)
(* The traced round, campaign by campaign: the driver at [jobs:2] (the
   traced end-to-end operation) and at [jobs:1] (the parallel speed-up),
   then a single-job replay of the driver's lane path through the fault
   layer's public functions —
   [Classify.baseline], [replay], then per lane batch
   [Campaign.classify_lane_batch] with a [?classify] wrapper around
   [classify_incr] whose first call forces the batch's [record].  The
   replay must reproduce the driver's reports. *)

let replay_lane_path tr ~req ((config, net) : campaign) ~reached =
  let span name f = Trace.span tr ~req name f in
  let faults = Fault.Campaign.faults_of_config config net in
  let baseline =
    span "fault.baseline" (fun () ->
        Classify.baseline ~cycles:config.cycles ~flavour:config.flavour net)
  in
  let replay = span "fault.replay" (fun () -> Classify.replay baseline) in
  let lanes = Skeleton.Packed_lanes.max_lanes in
  (* the driver's grouping: stable sort by the fault site's cone
     representative, undone after classification *)
  let eng = Skeleton.Packed.create ~flavour:config.flavour net in
  let rep (f : Fault.Model.t) =
    let edge =
      match f.site with
      | Fault.Model.Forward { edge; _ }
      | Fault.Model.Backward { edge; _ }
      | Fault.Model.Register { edge; _ }
      | Fault.Model.Link { edge; _ } ->
          edge
    in
    Skeleton.Packed.Cone.rep (Skeleton.Packed.Cone.of_edge eng edge)
  in
  let ordered =
    List.stable_sort
      (fun (_, a) (_, b) -> compare (rep a) (rep b))
      (List.mapi (fun i f -> (i, f)) faults)
  in
  let rec batches acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = lanes - 1 then batches (List.rev cur :: acc) [ x ] 1 rest
        else batches acc (x :: cur) (k + 1) rest
  in
  List.concat_map
    (fun batch ->
      let fs = List.map snd batch in
      let rc =
        lazy
          (span "fault.record" (fun () ->
               Classify.record baseline
                 ~window_starts:(List.map (fun (f : Fault.Model.t) -> f.cycle) fs)))
      in
      let classify fault =
        incr reached;
        span "fault.resim" (fun () ->
            match Lazy.force rc with
            | Some rc -> Classify.classify_incr baseline rc fault
            | None -> Classify.classify_fast baseline fault)
      in
      let reports =
        span "fault.batch" (fun () ->
            Fault.Campaign.classify_lane_batch ~classify baseline replay config
              net ~lanes fs)
      in
      List.map2 (fun (i, _) r -> (i, r)) batch reports)
    (batches [] [] 0 ordered)
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
  |> List.map snd

let traced tr campaigns =
  let reached = ref 0 and injections = ref 0 in
  let serial_ns = ref 0 and parallel_ns = ref 0 in
  let runs =
    List.mapi
      (fun i c ->
        let (result, _), ns =
          Clock.time (fun () -> inject ~span:(Trace.span tr ~req:i) c)
        in
        let (), serial =
          Clock.time (fun () ->
              ignore (Campaign.Fault_driver.run ~jobs:1 (fst c) (snd c)))
        in
        serial_ns := !serial_ns + serial;
        parallel_ns := !parallel_ns + ns;
        injections := !injections + List.length result.reports;
        let replayed = replay_lane_path tr ~req:i c ~reached in
        ( ns,
          if replayed = result.reports then None
          else Some "traced replay: the lane path disagrees with the driver" ))
      campaigns
  in
  let latencies = List.map fst runs and failures = List.filter_map snd runs in
  let runs = List.length latencies in
  let by_name = Trace.by_name (Trace.spans tr) in
  let per_campaign span =
    match Hashtbl.find_opt by_name span with
    | Some (_, total) -> float_of_int total /. 1e6 /. float_of_int runs
    | None -> 0.
  in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let net = snd (List.hd campaigns) in
  ( Array.of_list latencies,
    !injections,
    failures,
    [
      ("fault.baseline_ms", per_campaign "fault.baseline", runs);
      ("fault.replay_ms", per_campaign "fault.replay", runs);
      ("fault.record_ms", per_campaign "fault.record", runs);
      ("fault.screen_ms", per_campaign "fault.batch", runs);
      ("fault.resim_ms", per_campaign "fault.resim", runs);
      ("fault.resim_frac", ratio !reached !injections, !injections);
      ("campaign.driver_s", per_campaign "campaign.driver" /. 1e3, runs);
      ("campaign.parallel_speedup", ratio !serial_ns !parallel_ns, runs);
    ]
    @ Outcome.stepping [ net ] )
