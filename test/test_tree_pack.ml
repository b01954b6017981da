(* Tree_pack: edge-disjoint spanning trees out of a frozen CSR.

   The load-bearing properties, per ISSUE 8: every packed tree spans
   all n vertices along real CSR edges, the trees are pairwise
   edge-disjoint (so no vertex spends more than its degree), packing is
   deterministic, and the structured k-connected families yield the
   full ⌊k/2⌋ trees without backoff. *)

open Helpers
module Csr = Graph_core.Csr
module Graph = Graph_core.Graph
module Tree_pack = Graph_core.Tree_pack
module R = Topo.Registry

let csr_of ~kind ~n ~k ~seed =
  match R.build_csr_graph ~kind ~n ~k ~seed () with
  | Ok c -> c
  | Error e -> Alcotest.failf "%s(n=%d,k=%d): %s" kind n k e

(* Walk one tree of a packing and fail on any structural lie: a parent
   edge missing from the CSR, a depth that is not parent-depth + 1, a
   child listing that disagrees with the parent array, or a vertex the
   tree never reaches. Returns the tree's undirected edge set. *)
let check_tree ~ctx csr pack ~tree =
  let n = Tree_pack.n pack in
  let source = Tree_pack.source pack in
  let edges = Hashtbl.create n in
  let reached = ref 1 in
  if Tree_pack.parent pack ~tree source <> -1 then
    Alcotest.failf "%s: tree %d source has a parent" ctx tree;
  for v = 0 to n - 1 do
    let p = Tree_pack.parent pack ~tree v in
    if v <> source then begin
      if p < 0 then Alcotest.failf "%s: tree %d misses vertex %d" ctx tree v;
      if not (Csr.mem_edge csr p v) then
        Alcotest.failf "%s: tree %d edge (%d,%d) not in the graph" ctx tree p v;
      if Tree_pack.depth pack ~tree v <> Tree_pack.depth pack ~tree p + 1 then
        Alcotest.failf "%s: tree %d depth broken at %d" ctx tree v;
      Hashtbl.replace edges (min p v, max p v) ();
      incr reached
    end
  done;
  if !reached <> n then Alcotest.failf "%s: tree %d spans %d/%d" ctx tree !reached n;
  (* the children view must be the exact inverse of the parent view *)
  let listed = ref 0 in
  for v = 0 to n - 1 do
    Tree_pack.iter_children pack ~tree ~node:v (fun ~child ~eidx ->
        incr listed;
        if Tree_pack.parent pack ~tree child <> v then
          Alcotest.failf "%s: tree %d lists %d under %d wrongly" ctx tree child v;
        if eidx <> Csr.edge_index csr v child then
          Alcotest.failf "%s: tree %d eidx wrong for (%d,%d)" ctx tree v child)
  done;
  if !listed <> n - 1 then
    Alcotest.failf "%s: tree %d children list %d <> %d" ctx tree !listed (n - 1);
  edges

let check_pack ~ctx csr pack =
  let count = Tree_pack.count pack in
  let all = Hashtbl.create (Csr.m csr) in
  for t = 0 to count - 1 do
    let edges = check_tree ~ctx csr pack ~tree:t in
    Hashtbl.iter
      (fun e () ->
        if Hashtbl.mem all e then
          Alcotest.failf "%s: edge (%d,%d) in two trees" ctx (fst e) (snd e);
        Hashtbl.replace all e ())
      edges
  done

(* Every registry family: each admissible member yields a packing of
   spanning, pairwise edge-disjoint trees from an arbitrary source. *)
let prop_pack_all_families =
  qcheck ~count:20 "every family: spanning + edge-disjoint + in-graph"
    QCheck2.Gen.(triple (int_range 8 30) (int_range 2 5) (int_bound 10_000))
    (fun (n, k, seed) ->
      List.iter
        (fun e ->
          if e.R.admissible ~n ~k then begin
            let csr = csr_of ~kind:e.R.name ~n ~k ~seed in
            let source = seed mod Csr.n csr in
            let ctx = Printf.sprintf "%s(n=%d,k=%d) src=%d" e.R.name n k source in
            check_pack ~ctx csr (Tree_pack.pack csr ~source)
          end)
        R.all;
      true)

(* Determinism: packing is a pure function of (csr, source, count). *)
let prop_deterministic =
  qcheck ~count:20 "pack is deterministic"
    QCheck2.Gen.(pair (int_range 10 40) (int_bound 1_000))
    (fun (n, seed) ->
      let csr = csr_of ~kind:"kdiamond" ~n ~k:4 ~seed in
      let source = seed mod n in
      let a = Tree_pack.pack csr ~source and b = Tree_pack.pack csr ~source in
      Tree_pack.count a = Tree_pack.count b
      && List.for_all
           (fun t -> Tree_pack.edges a ~tree:t = Tree_pack.edges b ~tree:t)
           (List.init (Tree_pack.count a) Fun.id))

let test_full_count_on_structured () =
  (* the k-connected families admit the full ⌊k/2⌋ trees: no backoff *)
  List.iter
    (fun (kind, n, k) ->
      let csr = csr_of ~kind ~n ~k ~seed:7 in
      let pack = Tree_pack.pack csr ~source:0 in
      check_int (Printf.sprintf "%s(n=%d,k=%d) tree count" kind n k) (k / 2)
        (Tree_pack.count pack);
      check_pack ~ctx:kind csr pack)
    [ ("kdiamond", 66, 4); ("kdiamond", 130, 5); ("hypercube", 64, 6); ("harary", 40, 4) ]

let test_depth_accessors () =
  let csr = csr_of ~kind:"kdiamond" ~n:66 ~k:4 ~seed:7 in
  let pack = Tree_pack.pack csr ~source:0 in
  for t = 0 to Tree_pack.count pack - 1 do
    let maxd = ref 0 in
    for v = 0 to Tree_pack.n pack - 1 do
      maxd := max !maxd (Tree_pack.depth pack ~tree:t v)
    done;
    check_int "max_depth matches depths" !maxd (Tree_pack.max_depth pack ~tree:t)
  done

let test_count_override_and_backoff () =
  let csr = csr_of ~kind:"kdiamond" ~n:66 ~k:4 ~seed:7 in
  check_int "count:1 honoured" 1 (Tree_pack.count (Tree_pack.pack ~count:1 csr ~source:3));
  (* a cycle holds exactly one spanning tree; asking for 3 backs off *)
  let ring = csr_of ~kind:"cycle" ~n:12 ~k:2 ~seed:0 in
  check_int "cycle backs off to 1" 1 (Tree_pack.count (Tree_pack.pack ~count:3 ring ~source:0));
  check_pack ~ctx:"cycle" ring (Tree_pack.pack ~count:3 ring ~source:0)

let test_invalid_inputs () =
  let csr = csr_of ~kind:"kdiamond" ~n:22 ~k:3 ~seed:1 in
  Alcotest.check_raises "source out of range"
    (Invalid_argument "Tree_pack.pack: source out of range") (fun () ->
      ignore (Tree_pack.pack csr ~source:22));
  Alcotest.check_raises "bad count" (Invalid_argument "Tree_pack.pack: count must be >= 1")
    (fun () -> ignore (Tree_pack.pack ~count:0 csr ~source:0));
  let disconnected = Csr.of_graph (Graph.of_edges ~n:4 [ (0, 1); (2, 3) ]) in
  Alcotest.check_raises "disconnected graph"
    (Invalid_argument "Tree_pack.pack: graph is not connected") (fun () ->
      ignore (Tree_pack.pack disconnected ~source:0))

let test_pack_all_matches_pack () =
  let csr = csr_of ~kind:"kdiamond" ~n:66 ~k:4 ~seed:7 in
  let sources = [ 0; 13; 33; 61 ] in
  let seq = Tree_pack.pack_all csr ~sources in
  let pool = Par.Pool.create ~domains:3 in
  let par =
    Fun.protect
      ~finally:(fun () -> Par.Pool.shutdown pool)
      (fun () -> Tree_pack.pack_all ~pool csr ~sources)
  in
  List.iteri
    (fun i s ->
      check_int "source" s (Tree_pack.source seq.(i));
      for t = 0 to Tree_pack.count seq.(i) - 1 do
        check_bool "pool-invariant edges" true
          (Tree_pack.edges seq.(i) ~tree:t = Tree_pack.edges par.(i) ~tree:t)
      done)
    sources

(* Masked-pack validator for the re-stripe properties: every tree
   spans exactly the member set from the source over usable in-graph
   edges, depths are consistent, non-members stay outside, and no
   undirected edge serves two trees. *)
let masked_pack_ok csr p ~member ~usable =
  let n = Tree_pack.n p in
  let source = Tree_pack.source p in
  let ok = ref true in
  let all = Hashtbl.create 64 in
  for t = 0 to Tree_pack.count p - 1 do
    let reached = ref 1 in
    for v = 0 to n - 1 do
      let pa = Tree_pack.parent p ~tree:t v in
      if v = source || not member.(v) then begin
        if pa <> -1 then ok := false
      end
      else if
        pa < 0
        || (not member.(pa))
        || (not (Csr.mem_edge csr pa v))
        || (not (usable (Csr.edge_index csr pa v)))
        || (not (usable (Csr.edge_index csr v pa)))
        || Tree_pack.depth p ~tree:t v <> Tree_pack.depth p ~tree:t pa + 1
      then ok := false
      else begin
        incr reached;
        let e = (min pa v, max pa v) in
        if Hashtbl.mem all e then ok := false else Hashtbl.replace all e ()
      end
    done;
    if !reached <> Tree_pack.members p then ok := false
  done;
  !ok

(* Incremental re-stripe under a random epoch-shaped diff (a few
   leavers, a few dead links) against a fresh pack of kdiamond(n, k):
   a successful patch is structurally a masked pack at the original
   count — spanning the survivors, edge-disjoint, deterministic — and
   agrees with a fresh masked pack on feasibility and tree count; a
   [None] means the count genuinely became infeasible (the fresh pack
   backs off or the subgraph is disconnected). *)
let patch_tracks_fresh ~k ~n_of seed =
  let module Prng = Graph_core.Prng in
  let rngv = Prng.create ~seed in
  let n = n_of rngv in
  let csr = csr_of ~kind:"kdiamond" ~n ~k ~seed:(seed land 0xFFF) in
  let source = Prng.int rngv n in
  let base = Tree_pack.pack csr ~source in
  let member = Array.make n true in
  let leavers = Prng.int rngv 3 in
  let placed = ref 0 and tries = ref 0 in
  while !placed < leavers && !tries < 100 do
    incr tries;
    let v = Prng.int rngv n in
    if v <> source && member.(v) then begin
      member.(v) <- false;
      incr placed
    end
  done;
  let edges = ref [] in
  Csr.iter_edges csr (fun u v -> edges := (u, v) :: !edges);
  let edges = Array.of_list !edges in
  let dead = Hashtbl.create 8 in
  for _ = 1 to Prng.int rngv 3 do
    let u, v = edges.(Prng.int rngv (Array.length edges)) in
    Hashtbl.replace dead (Csr.edge_index csr u v) ();
    Hashtbl.replace dead (Csr.edge_index csr v u) ()
  done;
  let usable e = not (Hashtbl.mem dead e) in
  let members = Array.fold_left (fun a b -> if b then a + 1 else a) 0 member in
  match Tree_pack.patch base csr ~member ~usable () with
  | None -> (
      match Tree_pack.pack ~member ~usable csr ~source with
      | fresh -> Tree_pack.count fresh < Tree_pack.count base
      | exception Invalid_argument _ -> true)
  | Some p ->
      let again =
        match Tree_pack.patch base csr ~member ~usable () with
        | Some q -> q
        | None -> Alcotest.fail "patch not deterministic: second run refused"
      in
      let fresh = Tree_pack.pack ~count:(Tree_pack.count base) ~member ~usable csr ~source in
      Tree_pack.count p = Tree_pack.count base
      && Tree_pack.count fresh = Tree_pack.count p
      && Tree_pack.members p = members
      && masked_pack_ok csr p ~member ~usable
      && List.for_all
           (fun t -> Tree_pack.edges p ~tree:t = Tree_pack.edges again ~tree:t)
           (List.init (Tree_pack.count p) Fun.id)

let prop_patch_valid_and_tracks_fresh =
  qcheck ~count:30 "patch: spanning + edge-disjoint + tracks fresh masked pack"
    QCheck2.Gen.(int_bound 100_000)
    (patch_tracks_fresh ~k:4 ~n_of:(fun r -> (2 * 4) + 6 + Graph_core.Prng.int r 40))

(* The same property where the overlays live: n in [600, 1100], k 4 or
   5 (k = 4 leaves few spare edges, so many of its diffs refuse; the
   k = 5 ones mostly succeed). *)
let prop_patch_realistic_size =
  qcheck ~count:5 "patch at n in [600, 1100]: tracks fresh masked pack"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      patch_tracks_fresh ~k:(4 + (seed mod 2))
        ~n_of:(fun r -> 600 + Graph_core.Prng.int r 501)
        seed)

(* Golden digests. Phase 2 of the packer (the matroid-union
   completion behind both [pack] and [patch]) is tuned for speed, but
   its output is pinned: every tree's parent, depth, child and eidx
   arrays, hashed in full with [Digest] ([Hashtbl.hash] would only
   see a bounded prefix). The values come from the plain completion
   that rebuilds its forests and searches once per augmentation, so
   any drift in the packs — and with them in tree-stream delays —
   fails here. *)
let pack_digest p =
  let b = Buffer.create 4096 in
  let add i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ','
  in
  add (Tree_pack.count p);
  add (Tree_pack.members p);
  for t = 0 to Tree_pack.count p - 1 do
    for v = 0 to Tree_pack.n p - 1 do
      add (Tree_pack.parent p ~tree:t v);
      add (Tree_pack.depth p ~tree:t v)
    done;
    for v = 0 to Tree_pack.n p - 1 do
      Tree_pack.iter_children p ~tree:t ~node:v (fun ~child ~eidx ->
          add child;
          add eidx)
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let check_digest ctx want p = Alcotest.(check string) (ctx ^ " digest") want (pack_digest p)

(* vertex [v]'s [i]-th neighbour (ascending), as a directed-slot pair *)
let kill_link dead csr v i =
  let w = List.nth (Csr.neighbors csr v) i in
  Hashtbl.replace dead (Csr.edge_index csr v w) ();
  Hashtbl.replace dead (Csr.edge_index csr w v) ()

let test_golden_packs () =
  let csr = csr_of ~kind:"kdiamond" ~n:1026 ~k:4 ~seed:7 in
  List.iter
    (fun (source, want) ->
      check_digest (Printf.sprintf "kdiamond(1026,4) src=%d" source) want
        (Tree_pack.pack csr ~source))
    [
      (0, "a18b0e07730ae7656169f32c54936d51");
      (256, "21a92c8795cd9cf40d66025f46ee1c0e");
      (513, "0154e4712e55894b1517f6e30ef5fb44");
      (769, "1e253bb683ced01d67a6ba91813c5a16");
    ];
  let cube = csr_of ~kind:"hypercube" ~n:1024 ~k:10 ~seed:7 in
  let p = Tree_pack.pack cube ~source:0 in
  check_int "hypercube(1024,10) tree count" 5 (Tree_pack.count p);
  check_digest "hypercube(1024,10) src=0" "e5548a522a239d9fbad9e09b0087b955" p;
  (* masked: vertex 10 keeps one usable edge, so two trees are
     infeasible and the pack backs off to one *)
  let dead = Hashtbl.create 8 in
  List.iter (kill_link dead csr 10) [ 0; 1; 2 ];
  let usable e = not (Hashtbl.mem dead e) in
  let member = Array.make 1026 true in
  member.(500) <- false;
  let p = Tree_pack.pack ~member ~usable csr ~source:0 in
  check_int "masked pack backs off" 1 (Tree_pack.count p);
  check_bool "masked pack valid" true (masked_pack_ok csr p ~member ~usable);
  check_digest "masked backoff" "59483f173c2823c428e7bfc1a7e26d3d" p

let test_golden_patches () =
  (* both patches strand components greedy cannot reattach, so they
     finish through the augmenting completion *)
  let patched ~k ~source ~leavers ~links want =
    let csr = csr_of ~kind:"kdiamond" ~n:1026 ~k ~seed:7 in
    let base = Tree_pack.pack csr ~source in
    let member = Array.make 1026 true in
    List.iter (fun v -> member.(v) <- false) leavers;
    let dead = Hashtbl.create 8 in
    List.iter (fun (v, i) -> kill_link dead csr v i) links;
    let usable e = not (Hashtbl.mem dead e) in
    let ctx = Printf.sprintf "patch kdiamond(1026,%d) src=%d" k source in
    match Tree_pack.patch base csr ~member ~usable () with
    | None -> Alcotest.failf "%s refused" ctx
    | Some p ->
        check_bool (ctx ^ " valid") true (masked_pack_ok csr p ~member ~usable);
        check_digest ctx want p
  in
  patched ~k:4 ~source:256 ~leavers:[ 400 ] ~links:[] "33d272bea6224fd77c8691eb16054791";
  patched ~k:5 ~source:0 ~leavers:[ 5; 700 ] ~links:[ (33, 1); (900, 0) ]
    "d7d118e708e43240850a5fb266278fd8"

let test_pack_n4098 () =
  let csr = csr_of ~kind:"kdiamond" ~n:4098 ~k:4 ~seed:7 in
  let p = Tree_pack.pack csr ~source:0 in
  check_int "kdiamond(4098,4) tree count" 2 (Tree_pack.count p);
  check_pack ~ctx:"kdiamond(4098,4)" csr p

let test_patch_noop_and_errors () =
  let csr = csr_of ~kind:"kdiamond" ~n:40 ~k:4 ~seed:3 in
  let p = Tree_pack.pack csr ~source:2 in
  (* a diff that invalidates nothing returns the pack physically unchanged *)
  (match Tree_pack.patch p csr ~member:(Array.make 40 true) () with
  | Some q -> check_bool "no-op patch is physically the same pack" true (q == p)
  | None -> Alcotest.fail "no-op patch refused");
  let other = csr_of ~kind:"kdiamond" ~n:42 ~k:4 ~seed:3 in
  Alcotest.check_raises "wrong snapshot size"
    (Invalid_argument "Tree_pack.patch: CSR size does not match the pack") (fun () ->
      ignore (Tree_pack.patch p other ()));
  let masked_out = Array.make 40 true in
  masked_out.(2) <- false;
  Alcotest.check_raises "source masked out"
    (Invalid_argument "Tree_pack.patch: source is not a member") (fun () ->
      ignore (Tree_pack.patch p csr ~member:masked_out ()))

let test_cache_reuse () =
  let csr = csr_of ~kind:"kdiamond" ~n:66 ~k:4 ~seed:7 in
  let cache = Tree_pack.Cache.create () in
  let a = Tree_pack.Cache.get cache csr ~source:5 in
  let b = Tree_pack.Cache.get cache csr ~source:5 in
  check_bool "same csr hits the cache" true (a == b);
  let all = Tree_pack.Cache.get_all cache csr ~sources:[ 9; 5; 9 ] in
  check_bool "get_all reuses cached packs" true (all.(1) == a);
  check_bool "duplicate sources share one pack" true (all.(0) == all.(2));
  (* a different snapshot resets the cache even at equal dimensions *)
  let csr' = csr_of ~kind:"kdiamond" ~n:66 ~k:4 ~seed:7 in
  let c = Tree_pack.Cache.get cache csr' ~source:5 in
  check_bool "new snapshot -> fresh pack" true (c != a)

let suite =
  [
    prop_pack_all_families;
    prop_deterministic;
    Alcotest.test_case "structured families give ⌊k/2⌋ trees" `Quick test_full_count_on_structured;
    Alcotest.test_case "depth accessors agree" `Quick test_depth_accessors;
    Alcotest.test_case "count override + backoff" `Quick test_count_override_and_backoff;
    Alcotest.test_case "invalid inputs raise" `Quick test_invalid_inputs;
    Alcotest.test_case "pack_all: pool-invariant" `Quick test_pack_all_matches_pack;
    prop_patch_valid_and_tracks_fresh;
    prop_patch_realistic_size;
    Alcotest.test_case "golden digests: pack at n ~ 1k" `Quick test_golden_packs;
    Alcotest.test_case "golden digests: patch at n = 1026" `Quick test_golden_patches;
    Alcotest.test_case "pack at n = 4098: spanning + disjoint" `Quick test_pack_n4098;
    Alcotest.test_case "patch: no-op + errors" `Quick test_patch_noop_and_errors;
    Alcotest.test_case "cache reuse + reset" `Quick test_cache_reuse;
  ]
