module Csr = Graph_core.Csr
module Tree_pack = Graph_core.Tree_pack
module Network = Netsim.Network

(* Payload word: chunk id in the high bits, the flood-escalation flag in
   bit 0 — so a tree-routed copy and a fallback-flood copy of the same
   chunk stay distinguishable on the wire. *)
let encode ~chunk ~flood = (chunk lsl 1) lor Bool.to_int flood

let chunk_of payload = payload lsr 1

let is_flood payload = payload land 1 = 1

(* Forward one chunk from [node] down its tree, or escalate. The
   all-children check runs before any send: a dead child link
   (failed, crashed endpoint, or full Drop_tail FIFO) means the
   subtree below it is unreachable by tree routing, so the node
   switches this chunk to flood mode — every neighbour except the one
   it came from — and delivery degrades to the O(2m) flood bound
   instead of silently losing the subtree. Returns 1 on escalation,
   0 on a clean tree hop. *)
let forward ~net ~pack ~tree ~node ~parent ~chunk =
  let usable = ref true in
  Tree_pack.iter_children pack ~tree ~node (fun ~child ~eidx ->
      if !usable && not (Network.link_usable net ~src:node ~dst:child ~eidx) then usable := false);
  if !usable then begin
    let p = encode ~chunk ~flood:false in
    Tree_pack.iter_children pack ~tree ~node (fun ~child ~eidx ->
        Network.send_eidx net ~src:node ~dst:child ~eidx p);
    0
  end
  else begin
    Network.send_neighbors net ~src:node ~except:parent (encode ~chunk ~flood:true);
    1
  end
