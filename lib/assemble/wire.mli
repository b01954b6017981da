(** Wire format of the assembly protocol, and the point-to-point
    substrate it runs on.

    {2 Substrate}

    Assembly is about building the {e overlay}; underneath it every
    node can already address every other (the IP layer of the story).
    That underlay is modelled as a complete graph frozen into a
    {!Graph_core.Csr} — which makes every protocol message a plain
    {!Netsim.Network.send_eidx} of one int word, with the CSR
    edge slot computed arithmetically ({!eidx}) instead of searched.
    Overlay links are protocol state, not substrate edges: the
    realized topology is collected from node state after the run.

    {2 Messages}

    One non-negative int per message: a 3-bit tag and a view ref
    ({!View.Pool}) in the remaining bits. Five tags:

    - [Push] — gossip: here is my view (answered by [Reply])
    - [Reply] — gossip: my view after merging yours (not answered)
    - [Link_req] — frozen on this view, you are my neighbour: link?
    - [Link_ack] — yes, frozen on the same view; link established
    - [Link_nack] — no: my current view is the payload (re-converge) *)

type tag =
  | Push
  | Reply
  | Link_req
  | Link_ack
  | Link_nack

val substrate : n:int -> Graph_core.Csr.t
(** The complete graph on [n] vertices, built directly in CSR form
    (no adjacency-set intermediate). *)

val eidx : n:int -> int -> int -> int
(** [eidx ~n u v]: the CSR slot of directed edge (u,v) in
    [substrate ~n] — row [u] is [0..n-1] minus [u], ascending, so the
    slot is [u*(n-1) + (if v < u then v else v-1)]. *)

val pack : tag -> int -> int
(** [pack tag vref] — [vref] must be ≥ 0 (view refs are pool indices,
    far below the payload plane's 2{^60} bound). *)

val unpack : int -> tag * int

val tag_name : tag -> string
