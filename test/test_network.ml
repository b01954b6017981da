open Helpers
module Graph = Graph_core.Graph
module Generators = Graph_core.Generators
module Sim = Netsim.Sim
module Network = Netsim.Network

let make_net ?latency ?loss_rate () =
  let sim = Sim.create () in
  let g = Generators.cycle 5 in
  let net = Network.create ~sim ~graph:g ?latency ?loss_rate () in
  (sim, net)

let test_basic_delivery () =
  let sim, net = make_net () in
  let received = ref [] in
  Network.set_receiver net (fun ~dst ~src msg -> received := (dst, src, msg) :: !received);
  Network.send net ~src:0 ~dst:1 42;
  Sim.run sim;
  Alcotest.(check (list (triple int int int))) "one delivery" [ (1, 0, 42) ] !received

let test_latency_applied () =
  let sim, net = make_net ~latency:(Network.constant_latency 2.5) () in
  let at = ref 0.0 in
  Network.set_receiver net (fun ~dst:_ ~src:_ _ -> at := Sim.now sim);
  Network.send net ~src:0 ~dst:1 0;
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "arrival time" 2.5 !at

let test_send_requires_edge () =
  let _, net = make_net () in
  Alcotest.check_raises "non-edge" (Invalid_argument "Network.send: no such edge") (fun () ->
      Network.send net ~src:0 ~dst:2 0);
  Alcotest.check_raises "negative message" (Invalid_argument "Network.send: negative message")
    (fun () -> Network.send net ~src:0 ~dst:1 (-1));
  check_int "nothing counted" 0 (Network.stats net).Network.sent

let test_crashed_source_rejected () =
  let _, net = make_net () in
  Network.crash net 0;
  Alcotest.check_raises "crashed source" (Invalid_argument "Network.send: source is crashed")
    (fun () -> Network.send net ~src:0 ~dst:1 0)

let test_crashed_destination_drops () =
  let sim, net = make_net () in
  let received = ref 0 in
  Network.set_receiver net (fun ~dst:_ ~src:_ _ -> incr received);
  Network.crash net 1;
  Network.send net ~src:0 ~dst:1 0;
  Sim.run sim;
  check_int "nothing delivered" 0 !received;
  let s = Network.stats net in
  check_int "dropped_crash" 1 s.Network.dropped_crash;
  check_int "sent" 1 s.Network.sent

let test_crash_during_flight_drops () =
  let sim, net = make_net ~latency:(Network.constant_latency 5.0) () in
  let received = ref 0 in
  Network.set_receiver net (fun ~dst:_ ~src:_ _ -> incr received);
  Network.send net ~src:0 ~dst:1 0;
  (* crash the destination while the message is in flight *)
  Sim.schedule sim ~delay:1.0 (fun () -> Network.crash net 1);
  Sim.run sim;
  check_int "dropped mid-flight" 0 !received

let test_failed_link_drops () =
  let sim, net = make_net () in
  let received = ref 0 in
  Network.set_receiver net (fun ~dst:_ ~src:_ _ -> incr received);
  Network.fail_link net 0 1;
  check_bool "failed" true (Network.link_failed net 1 0);
  Network.send net ~src:0 ~dst:1 0;
  Network.send net ~src:1 ~dst:0 0;
  Sim.run sim;
  check_int "both directions dead" 0 !received;
  check_int "counted" 2 (Network.stats net).Network.dropped_link

let test_fail_link_requires_edge () =
  let _, net = make_net () in
  Alcotest.check_raises "non-edge" (Invalid_argument "Network.fail_link: no such edge") (fun () ->
      Network.fail_link net 0 2)

let test_loss_rate_statistical () =
  let sim = Sim.create ~seed:7 () in
  let g = Generators.complete 2 in
  let net = Network.create ~sim ~graph:g ~loss_rate:0.3 () in
  let received = ref 0 in
  Network.set_receiver net (fun ~dst:_ ~src:_ _ -> incr received);
  for _ = 1 to 2000 do
    Network.send net ~src:0 ~dst:1 0
  done;
  Sim.run sim;
  let frac = float_of_int !received /. 2000.0 in
  check_bool "~70% delivered" true (frac > 0.62 && frac < 0.78);
  let s = Network.stats net in
  check_int "accounting adds up" 2000 (s.Network.delivered + s.Network.dropped_random)

let test_alive_mask () =
  let _, net = make_net () in
  Network.crash net 3;
  Alcotest.(check (array bool)) "mask" [| true; true; true; false; true |] (Network.alive_mask net)

let test_invalid_loss_rate () =
  let sim = Sim.create () in
  let g = Generators.cycle 4 in
  Alcotest.check_raises "bad rate" (Invalid_argument "Network.create: loss_rate outside [0,1)")
    (fun () -> ignore (Network.create ~sim ~graph:g ~loss_rate:1.5 () : Network.t))

let test_uniform_latency_bounds () =
  let rngv = rng () in
  let lat = Network.uniform_latency ~lo:1.0 ~hi:3.0 in
  for _ = 1 to 200 do
    let l = lat rngv ~src:0 ~dst:1 in
    check_bool "in bounds" true (l >= 1.0 && l < 3.0)
  done

let test_exponential_latency_floor () =
  let rngv = rng ~salt:1 () in
  let lat = Network.exponential_latency ~mean:3.0 in
  for _ = 1 to 200 do
    check_bool "above floor" true (lat rngv ~src:0 ~dst:1 >= 1.0)
  done


let test_processing_delay_serializes () =
  (* two messages arrive at node 1 at t=1; with delay 2 they are handled
     at t=3 and t=5 *)
  let sim = Sim.create () in
  let g = Graph_core.Generators.complete 3 in
  let net = Network.create ~sim ~graph:g ~processing_delay:2.0 () in
  let times = ref [] in
  Network.set_receiver net (fun ~dst ~src:_ _ -> if dst = 1 then times := Sim.now sim :: !times);
  Network.send net ~src:0 ~dst:1 0;
  Network.send net ~src:2 ~dst:1 0;
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "serialized handling" [ 3.0; 5.0 ] (List.rev !times)

let test_processing_delay_zero_is_default () =
  let sim = Sim.create () in
  let g = Graph_core.Generators.complete 3 in
  let net = Network.create ~sim ~graph:g () in
  let times = ref [] in
  Network.set_receiver net (fun ~dst ~src:_ _ -> if dst = 1 then times := Sim.now sim :: !times);
  Network.send net ~src:0 ~dst:1 0;
  Network.send net ~src:2 ~dst:1 0;
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "simultaneous" [ 1.0; 1.0 ] (List.rev !times)

let test_processing_delay_negative_rejected () =
  let sim = Sim.create () in
  let g = Graph_core.Generators.cycle 4 in
  Alcotest.check_raises "negative" (Invalid_argument "Network.create: negative processing_delay")
    (fun () -> ignore (Network.create ~sim ~graph:g ~processing_delay:(-1.0) () : Network.t))

let test_processing_delay_idle_resets () =
  (* after the queue drains, a later message is handled promptly *)
  let sim = Sim.create () in
  let g = Graph_core.Generators.complete 2 in
  let net = Network.create ~sim ~graph:g ~processing_delay:1.0 () in
  let times = ref [] in
  Network.set_receiver net (fun ~dst:_ ~src:_ _ -> times := Sim.now sim :: !times);
  Network.send net ~src:0 ~dst:1 0;
  Sim.schedule sim ~delay:10.0 (fun () -> Network.send net ~src:0 ~dst:1 0);
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "no stale backlog" [ 2.0; 12.0 ] (List.rev !times)

(* the recovery-semantics pin: crash state is evaluated at delivery
   time, so an in-flight message to a node that recovers before the
   delivery event fires is delivered, not counted dropped_crash *)
let test_recover_delivers_in_flight () =
  let sim, net = make_net ~latency:(Network.constant_latency 5.0) () in
  let received = ref [] in
  Network.set_receiver net (fun ~dst ~src:_ _ -> received := (Sim.now sim, dst) :: !received);
  Network.crash net 1;
  Sim.schedule sim ~delay:1.0 (fun () -> Network.send net ~src:0 ~dst:1 0);
  (* recovery at t=3 < delivery at t=6: the crash window never sees
     the message land *)
  Sim.schedule sim ~delay:3.0 (fun () -> Network.recover net 1);
  Sim.run sim;
  Alcotest.(check (list (pair (float 1e-9) int))) "delivered after recovery" [ (6.0, 1) ]
    !received;
  let s = Network.stats net in
  check_int "delivered" 1 s.Network.delivered;
  check_int "dropped_crash" 0 s.Network.dropped_crash

let test_recover_misses_crash_window () =
  (* same shape, but the message lands inside the crash window *)
  let sim, net = make_net ~latency:(Network.constant_latency 1.0) () in
  let received = ref [] in
  Network.set_receiver net (fun ~dst ~src:_ _ -> received := dst :: !received);
  Network.crash net 1;
  Network.send net ~src:0 ~dst:1 0;
  Sim.schedule sim ~delay:3.0 (fun () -> Network.recover net 1);
  Sim.run sim;
  Alcotest.(check (list int)) "nothing delivered" [] !received;
  let s = Network.stats net in
  check_int "dropped_crash" 1 s.Network.dropped_crash;
  check_bool "recovered and receiving again" false (Network.is_crashed net 1)

let test_recover_validates_and_is_idempotent () =
  let _, net = make_net () in
  Alcotest.check_raises "out of range" (Invalid_argument "Network.recover: vertex out of range")
    (fun () -> Network.recover net 99);
  Network.recover net 2 (* never crashed: a no-op *);
  Network.crash net 2;
  Network.recover net 2;
  Network.recover net 2;
  check_bool "up" false (Network.is_crashed net 2)

let test_restore_link () =
  let sim, net = make_net () in
  let received = ref 0 in
  Network.set_receiver net (fun ~dst:_ ~src:_ _ -> incr received);
  Network.fail_link net 0 1;
  Network.send net ~src:0 ~dst:1 0;
  Network.restore_link net 0 1;
  check_bool "link back up" false (Network.link_failed net 0 1);
  Network.send net ~src:0 ~dst:1 0;
  Sim.run sim;
  (* the drop before the restore stays lost *)
  check_int "one delivery" 1 !received;
  check_int "one link drop" 1 (Network.stats net).Network.dropped_link;
  Alcotest.check_raises "restore needs an edge"
    (Invalid_argument "Network.restore_link: no such edge") (fun () ->
      Network.restore_link net 0 2)

let test_heal_restores_everything () =
  let _, net = make_net () in
  Network.fail_link net 0 1;
  Network.fail_link net 2 3;
  Network.heal net;
  check_bool "0-1 up" false (Network.link_failed net 0 1);
  check_bool "2-3 up" false (Network.link_failed net 2 3)

let test_set_loss_rate_mid_run () =
  let sim, net = make_net () in
  let received = ref 0 in
  Network.set_receiver net (fun ~dst:_ ~src:_ _ -> incr received);
  check_bool "initial rate" true (Network.loss_rate net = 0.0);
  Network.set_loss_rate net 0.999999;
  for _ = 1 to 50 do
    Network.send net ~src:0 ~dst:1 0
  done;
  Network.set_loss_rate net 0.0;
  for _ = 1 to 10 do
    Network.send net ~src:0 ~dst:1 0
  done;
  Sim.run sim;
  (* at 0.999999 essentially everything drops; at 0 nothing does *)
  check_bool "lossy phase dropped" true ((Network.stats net).Network.dropped_random >= 45);
  check_bool "clean phase delivered" true (!received >= 10);
  Alcotest.check_raises "rate must be < 1"
    (Invalid_argument "Network.set_loss_rate: loss_rate outside [0,1)") (fun () ->
      Network.set_loss_rate net 1.0)

(* Priority bands, randomised over one congested link: deliveries
   within any band keep their send order (each band is FIFO and drops
   happen at admission, so what survives is an increasing subsequence),
   and the per-band counters conserve — sent = delivered + every drop
   reason — while summing to the global stats. *)
let prop_band_fifo_and_conservation =
  qcheck ~count:40 "bands: FIFO within band + per-band conservation"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let module Prng = Graph_core.Prng in
      let rngv = Prng.create ~seed in
      let bands = 2 + Prng.int rngv 3 in
      let qcap = 1 + Prng.int rngv 4 in
      let loss = if Prng.bool rngv then 0.2 else 0.0 in
      let sim = Sim.create () in
      let g = Graph.of_edges ~n:2 [ (0, 1) ] in
      let net =
        Network.create ~sim ~graph:g
          ~latency:(Network.constant_latency 0.7)
          ~loss_rate:loss ~link_capacity:1.0 ~queue_cap:qcap ~bands ()
      in
      let delivered = Array.make bands [] in
      (* message word: the send index over the 2-bit band *)
      Network.set_receiver net (fun ~dst:_ ~src:_ m ->
          delivered.(m land 3) <- (m lsr 2) :: delivered.(m land 3));
      let nmsg = 30 + Prng.int rngv 40 in
      for i = 0 to nmsg - 1 do
        let b = Prng.int rngv bands in
        Sim.schedule sim ~delay:(float_of_int i *. 0.3) (fun () ->
            Network.set_send_band net b;
            Network.send net ~src:0 ~dst:1 ((i lsl 2) lor b))
      done;
      Sim.run sim;
      let rec increasing = function
        | a :: (b :: _ as tl) -> a < b && increasing tl
        | _ -> true
      in
      let fifo_ok = Array.for_all (fun l -> increasing (List.rev l)) delivered in
      let sum_sent = ref 0 and conserved = ref true in
      for b = 0 to bands - 1 do
        let s = Network.band_stats net ~band:b in
        sum_sent := !sum_sent + s.Network.sent;
        if
          s.Network.sent
          <> s.Network.delivered + s.Network.dropped_queue + s.Network.dropped_random
             + s.Network.dropped_link + s.Network.dropped_crash
        then conserved := false;
        if List.length delivered.(b) <> s.Network.delivered then conserved := false
      done;
      fifo_ok && !conserved && !sum_sent = (Network.stats net).Network.sent)

(* Strict priority: however deep the bulk backlog on the lowest band,
   a band-0 message waits behind at most the one message already in
   service — its delay never exceeds latency + 2 service times. *)
let prop_band_high_priority_bound =
  qcheck ~count:40 "bands: band 0 never waits behind the bulk backlog"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let module Prng = Graph_core.Prng in
      let rngv = Prng.create ~seed in
      let bands = 2 + Prng.int rngv 3 in
      let cap = 0.5 +. (float_of_int (Prng.int rngv 20) /. 10.0) in
      let latency = 0.5 in
      let sim = Sim.create () in
      let g = Graph.of_edges ~n:2 [ (0, 1) ] in
      let net =
        Network.create ~sim ~graph:g
          ~latency:(Network.constant_latency latency)
          ~link_capacity:cap ~bands ()
      in
      (* bulk burst rides the default (lowest) band at t = 0 *)
      let bulk = 5 + Prng.int rngv 50 in
      for i = 1 to bulk do
        Network.send net ~src:0 ~dst:1 i
      done;
      let t1 = 0.1 +. (float_of_int (Prng.int rngv 30) /. 10.0) in
      let arrival = ref nan in
      Network.set_receiver net (fun ~dst:_ ~src:_ m -> if m = 99 then arrival := Sim.now sim);
      Sim.schedule sim ~delay:t1 (fun () ->
          let save = Network.send_band net in
          Network.set_send_band net 0;
          Network.send net ~src:0 ~dst:1 99;
          Network.set_send_band net save);
      Sim.run sim;
      !arrival -. t1 <= latency +. (2.0 /. cap) +. 1e-9)

let suite =
  [
    Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
    Alcotest.test_case "recover delivers in-flight" `Quick test_recover_delivers_in_flight;
    Alcotest.test_case "recover misses crash window" `Quick test_recover_misses_crash_window;
    Alcotest.test_case "recover validates, idempotent" `Quick test_recover_validates_and_is_idempotent;
    Alcotest.test_case "restore_link" `Quick test_restore_link;
    Alcotest.test_case "heal restores everything" `Quick test_heal_restores_everything;
    Alcotest.test_case "set_loss_rate mid-run" `Quick test_set_loss_rate_mid_run;
    Alcotest.test_case "latency applied" `Quick test_latency_applied;
    Alcotest.test_case "send requires edge" `Quick test_send_requires_edge;
    Alcotest.test_case "crashed source rejected" `Quick test_crashed_source_rejected;
    Alcotest.test_case "crashed destination drops" `Quick test_crashed_destination_drops;
    Alcotest.test_case "crash during flight" `Quick test_crash_during_flight_drops;
    Alcotest.test_case "failed link drops" `Quick test_failed_link_drops;
    Alcotest.test_case "fail_link requires edge" `Quick test_fail_link_requires_edge;
    Alcotest.test_case "loss rate statistical" `Quick test_loss_rate_statistical;
    Alcotest.test_case "alive mask" `Quick test_alive_mask;
    Alcotest.test_case "invalid loss rate" `Quick test_invalid_loss_rate;
    Alcotest.test_case "processing delay serializes" `Quick test_processing_delay_serializes;
    Alcotest.test_case "processing delay default" `Quick test_processing_delay_zero_is_default;
    Alcotest.test_case "processing delay negative" `Quick test_processing_delay_negative_rejected;
    Alcotest.test_case "processing delay idle resets" `Quick test_processing_delay_idle_resets;
    Alcotest.test_case "uniform latency bounds" `Quick test_uniform_latency_bounds;
    Alcotest.test_case "exponential latency floor" `Quick test_exponential_latency_floor;
    prop_band_fifo_and_conservation;
    prop_band_high_priority_bound;
  ]
