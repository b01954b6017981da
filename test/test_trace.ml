open Helpers
module Generators = Graph_core.Generators
module Sim = Netsim.Sim
module Network = Netsim.Network
module Trace = Netsim.Trace
module Env = Flood.Env
module Plan = Chaos.Plan

let traced_run ?loss_rate ?crashed_mid () =
  let sim = Sim.create ~seed:3 () in
  let g = Generators.cycle 6 in
  let trace = Trace.create () in
  let net = Network.create ~sim ~graph:g ?loss_rate ~trace () in
  Network.set_receiver net (fun ~dst ~src:_ _ ->
      (* relay once around the ring *)
      if dst <> 0 then Network.send net ~src:dst ~dst:((dst + 1) mod 6) 0);
  (match crashed_mid with Some v -> Network.crash net v | None -> ());
  Network.send net ~src:0 ~dst:1 0;
  Sim.run sim;
  (trace, Network.stats net)

let test_send_and_delivery_recorded () =
  let trace, stats = traced_run () in
  let evs = Trace.events trace in
  let sends = List.filter (fun e -> e.Trace.kind = Trace.Sent) evs in
  let delivered = List.filter (fun e -> e.Trace.kind = Trace.Delivered) evs in
  check_int "sends traced" stats.Network.sent (List.length sends);
  check_int "deliveries traced" stats.Network.delivered (List.length delivered)

let test_every_delivery_has_prior_send () =
  let trace, _ = traced_run () in
  let evs = Trace.events trace in
  List.iter
    (fun e ->
      if e.Trace.kind = Trace.Delivered then begin
        let matching =
          List.find_opt
            (fun s ->
              s.Trace.kind = Trace.Sent && s.Trace.seq = e.Trace.seq
              && s.Trace.src = e.Trace.src && s.Trace.dst = e.Trace.dst)
            evs
        in
        match matching with
        | None -> Alcotest.fail "delivery without send"
        | Some s -> check_bool "causality" true (s.Trace.time <= e.Trace.time)
      end)
    evs

let test_chronological_order () =
  let trace, _ = traced_run () in
  let times = List.map (fun e -> e.Trace.time) (Trace.events trace) in
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  check_bool "non-decreasing times" true (mono times)

let test_crash_drop_recorded () =
  let trace, stats = traced_run ~crashed_mid:3 () in
  let drops =
    List.filter (fun e -> e.Trace.kind = Trace.Dropped_crash) (Trace.events trace)
  in
  check_int "crash drops traced" stats.Network.dropped_crash (List.length drops);
  check_bool "at least one" true (List.length drops > 0)

let test_unique_sequence_numbers () =
  let trace, _ = traced_run () in
  let seqs =
    List.filter_map
      (fun e -> if e.Trace.kind = Trace.Sent then Some e.Trace.seq else None)
      (Trace.events trace)
  in
  check_int "distinct" (List.length seqs) (List.length (List.sort_uniq compare seqs))

let test_ring_buffer_eviction () =
  let t = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.record t { Trace.time = float_of_int i; kind = Trace.Sent; src = 0; dst = 1; seq = i }
  done;
  check_int "retained" 4 (Trace.count t);
  check_int "evicted" 6 (Trace.dropped_events t);
  let seqs = List.map (fun e -> e.Trace.seq) (Trace.events t) in
  Alcotest.(check (list int)) "newest kept in order" [ 6; 7; 8; 9 ] seqs

let test_pp_event () =
  let s =
    Format.asprintf "%a" Trace.pp_event
      { Trace.time = 1.5; kind = Trace.Delivered; src = 2; dst = 7; seq = 42 }
  in
  Alcotest.(check string) "render" "[1.500] #42 delivered 2->7" s

let test_invalid_capacity () =
  Alcotest.check_raises "zero" (Invalid_argument "Trace.create: capacity must be positive")
    (fun () -> ignore (Trace.create ~capacity:0 ()))

(* -- tracing changes nothing ------------------------------------------------ *)

(* Run [f] twice on the same environment, once with a trace attached,
   capturing each run's network through the prepare hook; the result
   records and the network stats must agree exactly, and the trace must
   be causal: every delivery's seq was sent earlier. *)
let traced_agrees ~env ?plan f =
  let run trace =
    let net = ref None in
    let env =
      env
      |> Env.with_prepare (fun n ->
             net := Some n;
             Option.iter (Chaos.Exec.install n) plan)
      |> match trace with Some t -> Env.with_trace t | None -> Fun.id
    in
    let r = f env in
    (r, Network.stats (Option.get !net))
  in
  let trace = Trace.create () in
  let plain = run None and traced = run (Some trace) in
  let sent = Hashtbl.create 1024 in
  let causal =
    List.for_all
      (fun e ->
        match e.Trace.kind with
        | Trace.Sent ->
            Hashtbl.replace sent e.Trace.seq ();
            true
        | Trace.Delivered -> Hashtbl.mem sent e.Trace.seq
        | _ -> true)
      (Trace.events trace)
  in
  compare plain traced = 0 && causal && Trace.dropped_events trace = 0 && Trace.count trace > 0

(* a crash, a dead link, a loss burst and a recovery, all off node 0 *)
let chaos_plan ~graph seed =
  let n = Graph.n graph in
  let victim = 1 + (seed mod (n - 1)) in
  let u = 1 + ((seed / 7) mod (n - 1)) in
  let v = List.hd (Graph.neighbors graph u) in
  Plan.make
    [
      { Plan.at = 1.5; event = Plan.Crash victim };
      { Plan.at = 2.0; event = Plan.Link_down (u, v) };
      { Plan.at = 2.5; event = Plan.Loss_rate 0.2 };
      { Plan.at = 5.0; event = Plan.Recover victim };
    ]

let prop_traced_protocols =
  qcheck ~count:15 "traced = untraced: flooding, gossip, multi, pif, reliable"
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let graph = (Lhg_core.Build.kdiamond_exn ~n:46 ~k:4).Lhg_core.Build.graph in
      let plan = chaos_plan ~graph seed in
      let env =
        Env.default |> Env.with_seed seed
        |> Env.with_latency (Network.uniform_latency ~lo:0.5 ~hi:1.5)
      in
      let lossy = Env.with_loss_rate 0.1 env in
      let pubs =
        List.map
          (fun (origin, inject_time, payload_id) -> { Flood.Multi.origin; inject_time; payload_id })
          [ (0, 0.0, 40); (5, 1.0, 7); (9, 2.5, 1000) ]
      in
      traced_agrees ~env:lossy ~plan (fun env ->
          Flood.Flooding.run_env ~env ~graph ~source:0 ())
      && traced_agrees ~env:lossy ~plan (fun env ->
             Flood.Gossip.run_env ~env ~graph ~source:0 ~fanout:2 ~ttl:8 ())
      && traced_agrees ~env:lossy ~plan (fun env ->
             Flood.Multi.run_env ~env ~graph ~publications:pubs ())
      (* PIF rejects a lossy env; the plan's loss burst still applies *)
      && traced_agrees ~env ~plan (fun env -> Flood.Pif.run_env ~env ~graph ~source:0 ())
      && traced_agrees ~env:lossy ~plan (fun env ->
             Flood.Reliable.run_env ~env ~graph ~publications:pubs ~anti_entropy_period:2.0
               ~duration:30.0 ()))

let prop_traced_streams =
  qcheck ~count:10 "traced = untraced: flood, trees, gossip streams"
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let csr = Graph_core.Csr.of_graph (Lhg_core.Build.kdiamond_exn ~n:66 ~k:4).Lhg_core.Build.graph in
      let env =
        Env.default |> Env.with_seed seed |> Env.with_link_capacity 1.0 |> Env.with_queue_cap 4
        |> Env.with_bands 2
      in
      List.for_all
        (fun d ->
          let workload =
            Traffic.Workload.default |> Traffic.Workload.with_dissemination d
            |> Traffic.Workload.with_source_count 2 |> Traffic.Workload.with_chunks_per_source 6
            |> Traffic.Workload.with_rate 0.5
          in
          traced_agrees ~env (fun env -> Traffic.Driver.run_csr_env ~env ~csr ~workload ()))
        Traffic.Workload.[ Flood; Trees; Gossip ])

let suite =
  [
    Alcotest.test_case "send and delivery recorded" `Quick test_send_and_delivery_recorded;
    Alcotest.test_case "delivery has prior send" `Quick test_every_delivery_has_prior_send;
    Alcotest.test_case "chronological order" `Quick test_chronological_order;
    Alcotest.test_case "crash drop recorded" `Quick test_crash_drop_recorded;
    Alcotest.test_case "unique sequence numbers" `Quick test_unique_sequence_numbers;
    Alcotest.test_case "ring buffer eviction" `Quick test_ring_buffer_eviction;
    Alcotest.test_case "pp event" `Quick test_pp_event;
    Alcotest.test_case "invalid capacity" `Quick test_invalid_capacity;
    prop_traced_protocols;
    prop_traced_streams;
  ]
