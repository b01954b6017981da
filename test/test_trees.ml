(* Flood.Trees: spanning-tree broadcast with flood fallback, driven as
   one-chunk Traffic.Driver streams — the chunk rides tree 0 of its
   source's packing.

   The load-bearing properties: a clean run costs exactly n−1 messages
   and covers everything; with up to ⌊k/2⌋−1 failed links the
   broadcast still reaches every alive node (escalating to flood
   bursts where a tree edge died); an off-tree failure costs nothing;
   and the payload encoding round-trips. *)

open Helpers
module Csr = Graph_core.Csr
module Tree_pack = Graph_core.Tree_pack
module Trees = Flood.Trees
module Env = Flood.Env
module R = Topo.Registry
module Workload = Traffic.Workload
module Driver = Traffic.Driver

let csr_of ~kind ~n ~k ~seed =
  match R.build_csr_graph ~kind ~n ~k ~seed () with
  | Ok c -> c
  | Error e -> Alcotest.failf "%s(n=%d,k=%d): %s" kind n k e

(* one chunk from [source], striped onto tree 0 of its packing *)
let one_chunk ~env ~csr ~source =
  let workload =
    Workload.default |> Workload.with_dissemination Workload.Trees
    |> Workload.with_sources [ source ] |> Workload.with_chunks_per_source 1
  in
  Driver.run_csr_env ~env ~csr ~workload ()

let test_encoding () =
  List.iter
    (fun chunk ->
      List.iter
        (fun flood ->
          let p = Trees.encode ~chunk ~flood in
          check_int "chunk round-trips" chunk (Trees.chunk_of p);
          check_bool "flag round-trips" flood (Trees.is_flood p))
        [ false; true ])
    [ 0; 1; 7; 1 lsl 20 ]

let test_clean_run_costs_n_minus_1 () =
  List.iter
    (fun (kind, n, k) ->
      let csr = csr_of ~kind ~n ~k ~seed:7 in
      let r = one_chunk ~env:(Env.make ~seed:3 ()) ~csr ~source:0 in
      check_int (kind ^ ": exactly n-1 messages") (n - 1) r.Driver.wire_messages;
      check_int (kind ^ ": no fallbacks") 0 r.Driver.tree_fallbacks;
      check_bool (kind ^ ": full coverage") true (r.Driver.delivery_fraction = 1.0);
      check_int (kind ^ ": everyone delivered") (n - 1) r.Driver.deliveries;
      check_bool (kind ^ ": completion takes time") true (r.Driver.duration > 0.0))
    [ ("kdiamond", 66, 4); ("hypercube", 32, 5); ("harary", 40, 4) ]

(* Any single failed link (⌊k/2⌋−1 = 1 for k in 4..5) leaves the
   broadcast complete: either the link was off-tree (pure tree run) or
   the upstream node escalates to a flood burst that routes around it.
   Failing a real tree edge forces the fallback path. *)
let prop_survives_link_failures =
  qcheck ~count:30 "≤ ⌊k/2⌋−1 dead links: still delivers to all alive"
    QCheck2.Gen.(triple (int_range 20 70) (int_range 4 5) (int_bound 10_000))
    (fun (n, k, seed) ->
      match R.find "kdiamond" with
      | Some e when not (e.R.admissible ~n ~k) -> true
      | _ ->
      let csr = csr_of ~kind:"kdiamond" ~n ~k ~seed in
      let source = seed mod Csr.n csr in
      let pack = Tree_pack.pack csr ~source in
      (* fail one edge of the tree the chunk rides *)
      let edges = Tree_pack.edges pack ~tree:0 in
      let u, v = List.nth edges (seed mod List.length edges) in
      let env = Env.make ~seed () |> Env.with_failed_links [ (u, v) ] in
      let r = one_chunk ~env ~csr ~source in
      r.Driver.all_covered
      && r.Driver.deliveries = Csr.n csr - 1
      && r.Driver.tree_fallbacks > 0
      && r.Driver.wire_messages > Csr.n csr - 1)

(* An off-tree failure must not disturb the tree at all. *)
let prop_off_tree_failure_is_free =
  qcheck ~count:30 "off-tree dead link: clean n-1 run"
    QCheck2.Gen.(pair (int_range 20 70) (int_bound 10_000))
    (fun (n, seed) ->
      match R.find "kdiamond" with
      | Some e when not (e.R.admissible ~n ~k:4) -> true
      | _ ->
      let csr = csr_of ~kind:"kdiamond" ~n ~k:4 ~seed in
      let n = Csr.n csr in
      let source = seed mod n in
      let pack = Tree_pack.pack csr ~source in
      if Tree_pack.count pack < 2 then true
      else begin
        (* an edge of tree 1 is never an edge of tree 0 *)
        let u, v = List.hd (Tree_pack.edges pack ~tree:1) in
        let env = Env.make ~seed () |> Env.with_failed_links [ (u, v) ] in
        let r = one_chunk ~env ~csr ~source in
        r.Driver.wire_messages = n - 1 && r.Driver.tree_fallbacks = 0
        && r.Driver.deliveries = n - 1
      end)

let test_crashed_nodes_excluded () =
  let csr = csr_of ~kind:"kdiamond" ~n:66 ~k:4 ~seed:7 in
  (* crash a leaf-ish node far from the source; coverage counts alive only *)
  let env = Env.make ~seed:3 () |> Env.with_crashed [ 65 ] in
  let r = one_chunk ~env ~csr ~source:0 in
  check_int "victim not delivered" (66 - 2) r.Driver.deliveries;
  check_bool "alive coverage full" true (r.Driver.delivery_fraction = 1.0 && r.Driver.all_covered)

let suite =
  [
    Alcotest.test_case "payload encoding round-trips" `Quick test_encoding;
    Alcotest.test_case "clean run: n-1 messages, full coverage" `Quick
      test_clean_run_costs_n_minus_1;
    prop_survives_link_failures;
    prop_off_tree_failure_is_free;
    Alcotest.test_case "crashed nodes excluded from coverage" `Quick
      test_crashed_nodes_excluded;
  ]
