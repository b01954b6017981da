(** Spanning-tree broadcast with flood fallback: the forwarding rule
    {!Traffic.Driver} stripes a chunk stream with.

    Where flooding pushes every chunk over every edge (O(2m) messages),
    tree dissemination forwards a chunk only down one packed spanning
    tree ({!Graph_core.Tree_pack}) — exactly n−1 messages on a clean
    run. The LHG's k-connectivity guarantees ⌊k/2⌋ edge-disjoint such
    trees, so a chunk stream striped across them loads each link at
    ~1/⌊k/2⌋ of the flood pressure (the Kim–Srikant argument) while the
    k−1 fault boundary stays intact:

    {b Fallback.} Before a node forwards down the tree it checks every
    child link ({!Netsim.Network.link_usable}); if any is dead —
    failed link, crashed child, full drop-tail FIFO — it escalates that
    chunk to a flood burst (all neighbours except the upstream one).
    Escalated copies carry a flag bit, and every node relays a flagged
    copy at most once {e even if the tree already delivered to it} —
    without that, tree-covered nodes would absorb the fallback flood
    and starve the subtree behind the dead edge. Delivery under any
    fault pattern that keeps the alive graph connected thus degrades to
    the flood bound instead of losing the subtree. *)

val encode : chunk:int -> flood:bool -> int
(** Pack a chunk id and the escalation flag into one payload word:
    [(chunk lsl 1) lor flood]. *)

val chunk_of : int -> int

val is_flood : int -> bool

val forward :
  net:Netsim.Network.t ->
  pack:Graph_core.Tree_pack.t ->
  tree:int ->
  node:int ->
  parent:int ->
  chunk:int ->
  int
(** One forwarding step: send [chunk] to every child of [node] in
    [tree], or — if any child link is unusable right now — escalate to
    a flood burst to all neighbours except [parent] ([-1] at the
    source). Returns the number of escalations (0 or 1). The building
    block {!Traffic.Driver} stripes with. *)
