module Graph = Graph_core.Graph
module Csr = Graph_core.Csr
module Prng = Graph_core.Prng

type latency = Prng.t -> src:int -> dst:int -> float

let constant_latency l = fun _ ~src:_ ~dst:_ -> l

let uniform_latency ~lo ~hi =
  if lo < 0.0 || hi < lo then invalid_arg "Network.uniform_latency";
  fun rng ~src:_ ~dst:_ -> lo +. Prng.float rng (hi -. lo)

let exponential_latency ~mean =
  if mean <= 1.0 then invalid_arg "Network.exponential_latency: mean must exceed the 1.0 floor";
  fun rng ~src:_ ~dst:_ -> 1.0 +. Prng.exponential rng ~mean:(mean -. 1.0)

type queue_policy = Drop_tail | Block

type stats = {
  sent : int;
  delivered : int;
  dropped_link : int;
  dropped_crash : int;
  dropped_random : int;
  dropped_queue : int;
}

(* In-flight messages ride the Sim event pool as packed ints, the
   message itself in the event's payload word. Event tags encode the
   delivery phase: [tag_arrival] fires when the link latency has
   elapsed, [tag_deliver] when a positive processing delay has also
   elapsed.

   With a trace attached, a message must also carry its trace seq to
   the delivery side, so the payload word holds a slot id into a
   recycled int store of (msg, seq) pairs instead. The store is only
   ever touched (and so only ever allocated) when tracing; like the Sim
   pool it is chunked — growth never copies or frees, so backlog memory
   is touched exactly once. *)
let tag_arrival = 0

let tag_deliver = 1

(* Priority bands: with [bands > 1] the sending band rides the event
   payload word above the message (or trace slot id), so the delivery
   side can account per band. Sim packs [payload lsl 2 | tag] into one
   OCaml int, leaving 61 bits — band bits 58..59 keep every slot id and
   every message (< 2^58 by contract) intact. Single-band networks
   never encode, so their payload words — and hence their executions —
   are bit-identical to the pre-band engine. *)
let band_shift = 58

let band_payload_mask = (1 lsl band_shift) - 1

let max_bands = 4

let chunk_bits = 10

let chunk_len = 1 lsl chunk_bits

let chunk_mask = chunk_len - 1

type t = {
  sim : Sim.t;
  graph : Graph.t option;  (** only when built from a mutable graph *)
  csr : Csr.t;  (** topology frozen at creation; every send checks it *)
  latency : latency;
  unit_latency : bool;  (** no model given: constant 1.0 without the closure call *)
  obs_on : bool;  (** cached [Obs.Registry.enabled obs] — registries never toggle *)
  mutable loss_rate : float;
  trace : Trace.t option;
  processing_delay : float;
  next_free : float array;  (** per-node receiver availability time *)
  cap_on : bool;  (** a finite link capacity was given *)
  service : float;  (** per-message service time = 1 / capacity (0 when [cap_on] is false) *)
  capacity : float;  (** messages per time unit per directed link (0 = infinite) *)
  queue_cap : int;  (** max backlog per directed link {e per band}, in-service message included *)
  queue_policy : queue_policy;
  bands : int;  (** priority bands on the FIFO plane; band 0 is highest *)
  band_service : float array;
      (** per-band service time = [service /. weight] (length [bands];
          empty when [cap_on] is false) *)
  mutable send_band : int;  (** band stamped on subsequent sends *)
  nslots : int;  (** [Csr.degree_sum csr] — the per-band stride of [link_free] *)
  link_free : float array;
      (** per-band, per-directed-edge (index [band * nslots + slot])
          time the band's share of the link finishes its current
          backlog; occupancy is implicit —
          [ceil ((free - now) / band_service)] — so a bounded FIFO
          costs no events and no allocation *)
  link_peak : int array;
      (** band-major high-water mark of the occupancy seen by arrivals
          (admitted or drop-tailed) — the per-link breakdown behind
          [max_backlog], feeding {!hottest_links} *)
  b_sent : int array;  (** per-band counters; [[||]] when [bands = 1] (global stats suffice) *)
  b_delivered : int array;
  b_dropped_link : int array;
  b_dropped_crash : int array;
  b_dropped_random : int array;
  b_dropped_queue : int array;
  mutable next_seq : int;
  rng : Prng.t;
  crashed : bool array;
  was_crashed : bool array;
      (** sticky: set by {!crash}, never cleared — the post-run record
          of which nodes a fault plan ever took down *)
  failed_links : (int * int, unit) Hashtbl.t;
  mutable failed_count : int;  (** = Hashtbl.length failed_links, kept for the send fast path *)
  tracing : bool;  (** trace <> None — payload words are trace slot ids *)
  mutable receiver : dst:int -> src:int -> int -> unit;
  mutable slots : int array array;
      (** trace slot store: slot [s] holds its message at
          [2 * (s land chunk_mask)] of chunk [s lsr chunk_bits], its
          trace seq one word later *)
  mutable slot_nchunks : int;
  mutable slot_free : int array array;
  mutable slot_free_top : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped_link : int;
  mutable dropped_crash : int;
  mutable dropped_random : int;
  mutable dropped_queue : int;
  mutable max_backlog : int;  (** high-water mark of any link's FIFO occupancy *)
  obs : Obs.Registry.t;
  m_sent : Obs.Registry.counter;
  m_delivered : Obs.Registry.counter;
  m_dropped_link : Obs.Registry.counter;
  m_dropped_crash : Obs.Registry.counter;
  m_dropped_random : Obs.Registry.counter;
  m_dropped_queue : Obs.Registry.counter;
  h_latency : Obs.Registry.histogram;
  h_queue_depth : Obs.Registry.histogram;
  h_link_queue : Obs.Registry.histogram;
}

(* -- trace slot store --------------------------------------------------- *)

(* only reached with an empty free list *)
let add_slot_chunk t =
  let c = t.slot_nchunks in
  if c = Array.length t.slots then begin
    let spine a = Array.append a (Array.make (max 8 c) [||]) in
    t.slots <- spine t.slots;
    t.slot_free <- spine t.slot_free
  end;
  t.slots.(c) <- Array.make (2 * chunk_len) 0;
  t.slot_free.(c) <- Array.make chunk_len 0;
  t.slot_nchunks <- c + 1;
  (* empty free list: the fresh ids occupy stack positions
     0..chunk_len-1 in free chunk 0, descending so the lowest pops
     first *)
  let base = c lsl chunk_bits in
  let f0 = t.slot_free.(0) in
  for i = 0 to chunk_len - 1 do
    f0.(i) <- base + chunk_len - 1 - i
  done;
  t.slot_free_top <- chunk_len

let alloc_slot t msg seq =
  if t.slot_free_top = 0 then add_slot_chunk t;
  let p = t.slot_free_top - 1 in
  t.slot_free_top <- p;
  let s = t.slot_free.(p lsr chunk_bits).(p land chunk_mask) in
  let chunk = t.slots.(s lsr chunk_bits) and i = 2 * (s land chunk_mask) in
  chunk.(i) <- msg;
  chunk.(i + 1) <- seq;
  s

let free_slot t s =
  let p = t.slot_free_top in
  t.slot_free.(p lsr chunk_bits).(p land chunk_mask) <- s;
  t.slot_free_top <- p + 1

(* -- delivery sink ------------------------------------------------------ *)

let emit t kind ~src ~dst ~seq =
  match t.trace with
  | None -> ()
  | Some tr -> Trace.record tr { Trace.time = Sim.now t.sim; kind; src; dst; seq }

let deliver t ~src ~dst word =
  let band, word =
    if t.bands > 1 then (word lsr band_shift, word land band_payload_mask) else (0, word)
  in
  (* untraced, the word is the message itself; traced, it is the slot
     parking the (msg, seq) pair *)
  let chunk = if t.tracing then t.slots.(word lsr chunk_bits) else [||] in
  let i = 2 * (word land chunk_mask) in
  let msg = if t.tracing then chunk.(i) else word in
  let seq = if t.tracing then chunk.(i + 1) else 0 in
  if t.tracing then free_slot t word;
  (* [dst] came off a CSR row, so it is in range *)
  if Array.unsafe_get t.crashed dst then begin
    t.dropped_crash <- t.dropped_crash + 1;
    if t.bands > 1 then t.b_dropped_crash.(band) <- t.b_dropped_crash.(band) + 1;
    Obs.Registry.incr t.m_dropped_crash;
    emit t Trace.Dropped_crash ~src ~dst ~seq
  end
  else begin
    t.delivered <- t.delivered + 1;
    if t.bands > 1 then t.b_delivered.(band) <- t.b_delivered.(band) + 1;
    if t.obs_on then Obs.Registry.incr t.m_delivered;
    if t.tracing then emit t Trace.Delivered ~src ~dst ~seq;
    t.receiver ~dst ~src msg
  end

(* FIFO receiver queue: one message per processing_delay *)
let queue_processing t ~src ~dst ~tag ~payload =
  let now = Sim.now t.sim in
  let start = Float.max now t.next_free.(dst) in
  let finish = start +. t.processing_delay in
  if Obs.Registry.enabled t.obs then
    Obs.Registry.observe t.h_queue_depth ((start -. now) /. t.processing_delay);
  t.next_free.(dst) <- finish;
  Sim.schedule_message t.sim ~time:finish ~src ~dst ~tag ~payload

let handle t ~src ~dst ~tag ~payload =
  if tag = tag_arrival && t.processing_delay > 0.0 then
    queue_processing t ~src ~dst ~tag:tag_deliver ~payload
  else deliver t ~src ~dst payload

let make ~sim ~graph ~csr ?latency ?(loss_rate = 0.0)
    ?(processing_delay = 0.0) ?link_capacity ?(queue_cap = max_int)
    ?(queue_policy = Drop_tail) ?(bands = 1) ?band_weights ?trace
    ?(obs = Obs.Registry.nil) () =
  if loss_rate < 0.0 || loss_rate >= 1.0 then invalid_arg "Network.create: loss_rate outside [0,1)";
  if processing_delay < 0.0 then invalid_arg "Network.create: negative processing_delay";
  let capacity = match link_capacity with Some c -> c | None -> 0.0 in
  (match link_capacity with
  | Some c when not (c > 0.0) || not (Float.is_finite c) ->
      invalid_arg "Network.create: link_capacity must be a positive finite rate"
  | _ -> ());
  if queue_cap < 1 then invalid_arg "Network.create: queue_cap must be at least 1";
  if bands < 1 || bands > max_bands then
    invalid_arg (Printf.sprintf "Network.create: bands must be in [1, %d]" max_bands);
  (match band_weights with
  | None -> ()
  | Some w ->
      if Array.length w <> bands then
        invalid_arg "Network.create: band_weights length must equal bands";
      Array.iter
        (fun x ->
          if not (x > 0.0) || not (Float.is_finite x) then
            invalid_arg "Network.create: band weights must be positive finite")
        w);
  let cap_on = capacity > 0.0 in
  let service = if cap_on then 1.0 /. capacity else 0.0 in
  let nslots = Csr.degree_sum csr in
  let t =
    {
      sim;
      graph;
      csr;
      latency = (match latency with Some l -> l | None -> constant_latency 1.0);
      unit_latency = latency = None;
      obs_on = Obs.Registry.enabled obs;
      loss_rate;
      trace;
      processing_delay;
      next_free = Array.make (Csr.n csr) 0.0;
      cap_on;
      service;
      capacity;
      queue_cap;
      queue_policy;
      bands;
      band_service =
        (if not cap_on then [||]
         else
           match band_weights with
           | None -> Array.make bands service
           | Some w -> Array.map (fun x -> service /. x) w);
      (* default to the lowest band: data traffic needs no opt-in, and a
         control plane opts {e up} around each burst via set_send_band *)
      send_band = bands - 1;
      nslots;
      link_free = (if cap_on then Array.make (bands * nslots) 0.0 else [||]);
      link_peak = (if cap_on then Array.make (bands * nslots) 0 else [||]);
      b_sent = (if bands > 1 then Array.make bands 0 else [||]);
      b_delivered = (if bands > 1 then Array.make bands 0 else [||]);
      b_dropped_link = (if bands > 1 then Array.make bands 0 else [||]);
      b_dropped_crash = (if bands > 1 then Array.make bands 0 else [||]);
      b_dropped_random = (if bands > 1 then Array.make bands 0 else [||]);
      b_dropped_queue = (if bands > 1 then Array.make bands 0 else [||]);
      next_seq = 0;
      rng = Sim.fork_rng sim;
      crashed = Array.make (Csr.n csr) false;
      was_crashed = Array.make (Csr.n csr) false;
      failed_links = Hashtbl.create 16;
      failed_count = 0;
      tracing = trace <> None;
      receiver = (fun ~dst:_ ~src:_ _ -> ());
      slots = [||];
      slot_nchunks = 0;
      slot_free = [||];
      slot_free_top = 0;
      sent = 0;
      delivered = 0;
      dropped_link = 0;
      dropped_crash = 0;
      dropped_random = 0;
      dropped_queue = 0;
      max_backlog = 0;
      obs;
      m_sent = Obs.Registry.counter obs "net.sent";
      m_delivered = Obs.Registry.counter obs "net.delivered";
      m_dropped_link = Obs.Registry.counter obs "net.dropped_link";
      m_dropped_crash = Obs.Registry.counter obs "net.dropped_crash";
      m_dropped_random = Obs.Registry.counter obs "net.dropped_random";
      m_dropped_queue = Obs.Registry.counter obs "net.dropped_queue";
      h_latency = Obs.Registry.histogram obs "net.latency" ~bounds:Obs.Registry.time_bounds;
      h_queue_depth =
        Obs.Registry.histogram obs "net.queue_depth" ~bounds:Obs.Registry.depth_bounds;
      h_link_queue =
        Obs.Registry.histogram obs "net.link_queue" ~bounds:Obs.Registry.depth_bounds;
    }
  in
  (* one network per simulator: the Sim message sink is ours alone *)
  Sim.set_message_handler sim (fun ~src ~dst ~tag ~payload -> handle t ~src ~dst ~tag ~payload);
  t

let create ~sim ~graph ?latency ?loss_rate ?processing_delay ?link_capacity ?queue_cap
    ?queue_policy ?bands ?band_weights ?trace ?obs () =
  make ~sim ~graph:(Some graph) ~csr:(Csr.of_graph graph) ?latency ?loss_rate ?processing_delay
    ?link_capacity ?queue_cap ?queue_policy ?bands ?band_weights ?trace ?obs ()

let create_csr ~sim ~csr ?latency ?loss_rate ?processing_delay ?link_capacity ?queue_cap
    ?queue_policy ?bands ?band_weights ?trace ?obs () =
  make ~sim ~graph:None ~csr ?latency ?loss_rate ?processing_delay ?link_capacity ?queue_cap
    ?queue_policy ?bands ?band_weights ?trace ?obs ()

let graph t =
  match t.graph with
  | Some g -> g
  | None -> invalid_arg "Network.graph: network was created from a CSR snapshot (use Network.csr)"

let csr t = t.csr

let sim t = t.sim

let obs t = t.obs

let set_receiver t f = t.receiver <- f

let link_key u v = (min u v, max u v)

let is_crashed t v = t.crashed.(v)

let crash t v =
  if v < 0 || v >= Csr.n t.csr then invalid_arg "Network.crash: vertex out of range";
  if not t.crashed.(v) then Obs.Registry.event t.obs Obs.Registry.Crash ~node:v ~info:0;
  t.crashed.(v) <- true;
  t.was_crashed.(v) <- true

let recover t v =
  if v < 0 || v >= Csr.n t.csr then invalid_arg "Network.recover: vertex out of range";
  if t.crashed.(v) then Obs.Registry.event t.obs Obs.Registry.Recover ~node:v ~info:0;
  t.crashed.(v) <- false

let alive_mask t = Array.map not t.crashed

let ever_crashed t = Array.copy t.was_crashed

let fail_link t u v =
  if not (Csr.mem_edge t.csr u v) then invalid_arg "Network.fail_link: no such edge";
  if not (Hashtbl.mem t.failed_links (link_key u v)) then begin
    Obs.Registry.event t.obs Obs.Registry.Link_down ~node:u ~info:v;
    Hashtbl.replace t.failed_links (link_key u v) ();
    t.failed_count <- t.failed_count + 1
  end

let restore_link t u v =
  if not (Csr.mem_edge t.csr u v) then invalid_arg "Network.restore_link: no such edge";
  if Hashtbl.mem t.failed_links (link_key u v) then begin
    Obs.Registry.event t.obs Obs.Registry.Link_up ~node:u ~info:v;
    Hashtbl.remove t.failed_links (link_key u v);
    t.failed_count <- t.failed_count - 1
  end

let heal t =
  (* sorted so the Link_up event order is independent of hash layout *)
  let keys = Hashtbl.fold (fun k () acc -> k :: acc) t.failed_links [] in
  List.iter (fun (u, v) -> restore_link t u v) (List.sort compare keys)

let link_failed t u v = Hashtbl.mem t.failed_links (link_key u v)

let loss_rate t = t.loss_rate

let set_loss_rate t r =
  if r < 0.0 || r >= 1.0 then invalid_arg "Network.set_loss_rate: loss_rate outside [0,1)";
  if r <> t.loss_rate then
    Obs.Registry.event t.obs Obs.Registry.Loss_rate ~node:0
      ~info:(int_of_float (Float.round (r *. 1e6)));
  t.loss_rate <- r

(* -- bounded per-link FIFO ---------------------------------------------- *)

(* With a finite capacity, directed edge [eidx] serves one message per
   [service] time units; [link_free.(band * nslots + eidx)] is when the
   band's share of its current backlog drains. Occupancy is recovered
   arithmetically from that single float — no departure events, no
   allocation — and the admission decision depends only on [now] and
   prior sends on the same link, both of which the Calendar and Heap
   engines agree on, so queued streams stay byte-identical across
   engines.

   With [bands > 1], a band-[b] arrival waits behind the backlogs of
   every band of equal or higher priority (0..b) but never behind a
   lower one — strict priority with at most the one message already in
   service ahead of the high band, the standard zero-preemption model.
   A message already admitted keeps its departure time: priority steers
   future admissions, it does not recall the past. Occupancy and
   [queue_cap] are per band, so a saturated bulk band cannot drop-tail
   the control band. *)
let link_backlog_band t ~band ~eidx ~now =
  let free = Array.unsafe_get t.link_free ((band * t.nslots) + eidx) in
  if free > now then
    int_of_float
      (Float.ceil (((free -. now) /. Array.unsafe_get t.band_service band) -. 1e-9))
  else 0

let link_backlog t ~eidx ~now = link_backlog_band t ~band:t.send_band ~eidx ~now

(* Departure time of the admitted message, or [-1.0] for a drop-tail
   rejection (full queue under [Drop_tail]; [Block] always admits). *)
let link_admit t ~band ~eidx ~now =
  let backlog = link_backlog_band t ~band ~eidx ~now in
  let slot = (band * t.nslots) + eidx in
  (* the per-link peak counts rejected arrivals too: a saturated link
     that drop-tails everything is the hottest link there is *)
  if backlog > Array.unsafe_get t.link_peak slot then Array.unsafe_set t.link_peak slot backlog;
  if backlog >= t.queue_cap && t.queue_policy = Drop_tail then -1.0
  else begin
    if backlog > t.max_backlog then t.max_backlog <- backlog;
    if t.obs_on then Obs.Registry.observe t.h_link_queue (float_of_int backlog);
    (* start behind every equal-or-higher-priority backlog on this link;
       for [bands = 1] the loop reads the one float the old engine read,
       so the arithmetic — and the bytes downstream — are unchanged *)
    let start = ref now in
    for b = 0 to band do
      let f = Array.unsafe_get t.link_free ((b * t.nslots) + eidx) in
      if f > !start then start := f
    done;
    let depart = !start +. Array.unsafe_get t.band_service band in
    Array.unsafe_set t.link_free slot depart;
    depart
  end

(* The one send core. The edge and source-crash preconditions are the
   caller's; everything after is the steady-state hot path — no
   closures, no tuples (the failed-links probe is skipped while the
   table is empty), no allocation once the event pool is warm (and,
   when tracing, the slot store). [eidx] is the directed edge's CSR
   slot, consulted only under a finite [link_capacity]. *)
let unchecked_send t ~src ~dst ~eidx msg =
  let band = t.send_band in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.sent <- t.sent + 1;
  if t.bands > 1 then t.b_sent.(band) <- t.b_sent.(band) + 1;
  if t.obs_on then Obs.Registry.incr t.m_sent;
  if t.tracing then emit t Trace.Sent ~src ~dst ~seq;
  if t.failed_count > 0 && link_failed t src dst then begin
    t.dropped_link <- t.dropped_link + 1;
    if t.bands > 1 then t.b_dropped_link.(band) <- t.b_dropped_link.(band) + 1;
    Obs.Registry.incr t.m_dropped_link;
    emit t Trace.Dropped_link ~src ~dst ~seq
  end
  else if t.loss_rate > 0.0 && Prng.float t.rng 1.0 < t.loss_rate then begin
    t.dropped_random <- t.dropped_random + 1;
    if t.bands > 1 then t.b_dropped_random.(band) <- t.b_dropped_random.(band) + 1;
    Obs.Registry.incr t.m_dropped_random;
    emit t Trace.Dropped_random ~src ~dst ~seq
  end
  else begin
    (* admission (under a finite capacity) before the latency draw:
       a drop-tailed message draws nothing *)
    let depart = if t.cap_on then link_admit t ~band ~eidx ~now:(Sim.now t.sim) else 0.0 in
    if depart < 0.0 then begin
      t.dropped_queue <- t.dropped_queue + 1;
      if t.bands > 1 then t.b_dropped_queue.(band) <- t.b_dropped_queue.(band) + 1;
      Obs.Registry.incr t.m_dropped_queue;
      emit t Trace.Dropped_queue ~src ~dst ~seq
    end
    else begin
      let delay =
        if t.unit_latency then 1.0
        else begin
          let d = t.latency t.rng ~src ~dst in
          if d < 0.0 then invalid_arg "Network.send: latency model produced a negative delay";
          d
        end
      in
      if t.obs_on then Obs.Registry.observe t.h_latency delay;
      let word = if t.tracing then alloc_slot t msg seq else msg in
      let payload = if t.bands > 1 then (band lsl band_shift) lor word else word in
      if t.cap_on then
        Sim.schedule_message t.sim ~time:(depart +. delay) ~src ~dst ~tag:tag_arrival ~payload
      else Sim.schedule_message_after t.sim ~delay ~src ~dst ~tag:tag_arrival ~payload
    end
  end

let send t ~src ~dst msg =
  if not (Csr.mem_edge t.csr src dst) then invalid_arg "Network.send: no such edge";
  if t.crashed.(src) then invalid_arg "Network.send: source is crashed";
  if msg < 0 then invalid_arg "Network.send: negative message";
  let eidx = if t.cap_on then Csr.edge_index t.csr src dst else -1 in
  unchecked_send t ~src ~dst ~eidx msg

(* The tree-forwarding hot path: the packing already carries each
   parent→child slot, so neither the membership check nor the
   [edge_index] binary search of [send] is paid. *)
let send_eidx t ~src ~dst ~eidx msg =
  if Array.unsafe_get t.crashed src then invalid_arg "Network.send_eidx: source is crashed";
  unchecked_send t ~src ~dst ~eidx msg

(* [except] is mandatory: the flooding hot loop calls this once per
   delivered message, and an optional argument would box a [Some] on
   every call. *)
let send_neighbors t ~src ~except msg =
  if src < 0 || src >= Csr.n t.csr then invalid_arg "Network.send_neighbors: vertex out of range";
  if Array.unsafe_get t.crashed src then invalid_arg "Network.send_neighbors: source is crashed";
  (* edges come from our own frozen CSR row, so the per-neighbour edge
     membership check that [send] must do is free here, and the loop
     index [i] is the directed edge's CSR slot — the per-link queue key *)
  match Csr.storage t.csr with
  | Csr.Ints { offsets; neighbors } ->
      for i = offsets.(src) to offsets.(src + 1) - 1 do
        let dst = neighbors.(i) in
        if dst <> except then unchecked_send t ~src ~dst ~eidx:i msg
      done
  | Csr.Big { offsets; neighbors } ->
      for i = Bigarray.Array1.unsafe_get offsets src
            to Bigarray.Array1.unsafe_get offsets (src + 1) - 1 do
        let dst = Bigarray.Array1.unsafe_get neighbors i in
        if dst <> except then unchecked_send t ~src ~dst ~eidx:i msg
      done

let stats t =
  {
    sent = t.sent;
    delivered = t.delivered;
    dropped_link = t.dropped_link;
    dropped_crash = t.dropped_crash;
    dropped_random = t.dropped_random;
    dropped_queue = t.dropped_queue;
  }

let link_capacity t = if t.cap_on then Some t.capacity else None

let queue_cap t = t.queue_cap

let queue_policy t = t.queue_policy

let bands t = t.bands

let send_band t = t.send_band

let set_send_band t band =
  if band < 0 || band >= t.bands then invalid_arg "Network.set_send_band: band out of range";
  t.send_band <- band

let band_stats t ~band =
  if band < 0 || band >= t.bands then invalid_arg "Network.band_stats: band out of range";
  if t.bands = 1 then
    {
      sent = t.sent;
      delivered = t.delivered;
      dropped_link = t.dropped_link;
      dropped_crash = t.dropped_crash;
      dropped_random = t.dropped_random;
      dropped_queue = t.dropped_queue;
    }
  else
    {
      sent = t.b_sent.(band);
      delivered = t.b_delivered.(band);
      dropped_link = t.b_dropped_link.(band);
      dropped_crash = t.b_dropped_crash.(band);
      dropped_random = t.b_dropped_random.(band);
      dropped_queue = t.b_dropped_queue.(band);
    }

let max_queue_backlog t = t.max_backlog

let link_backlog_now t ~src ~dst =
  if not t.cap_on then 0
  else begin
    let eidx = Csr.edge_index t.csr src dst in
    if eidx < 0 then invalid_arg "Network.link_backlog_now: no such edge";
    link_backlog t ~eidx ~now:(Sim.now t.sim)
  end

(* Would a send on this directed edge reach a live queue right now?
   Evaluated at send time, the same instant the network itself checks
   link state — so a protocol branching on it and the drop accounting
   can never disagree. A full Drop_tail FIFO counts as unusable; Block
   always admits, so pressure alone never trips the fallback. *)
let link_usable t ~src ~dst ~eidx =
  (not (t.failed_count > 0 && link_failed t src dst))
  && (not (Array.unsafe_get t.crashed dst))
  && ((not t.cap_on)
     || t.queue_policy = Block
     || link_backlog t ~eidx ~now:(Sim.now t.sim) < t.queue_cap)

let hottest_links t ~max:limit =
  if (not t.cap_on) || limit <= 0 then []
  else begin
    let peak = Array.make limit 0 in
    let lsrc = Array.make limit 0 in
    let ldst = Array.make limit 0 in
    let filled = ref 0 in
    let slot = ref 0 in
    for src = 0 to Csr.n t.csr - 1 do
      Csr.iter_neighbors t.csr src (fun dst ->
          (* a link's heat is its hottest band *)
          let p = ref (Array.unsafe_get t.link_peak !slot) in
          for b = 1 to t.bands - 1 do
            let q = Array.unsafe_get t.link_peak ((b * t.nslots) + !slot) in
            if q > !p then p := q
          done;
          let p = !p in
          incr slot;
          if p > 0 && (!filled < limit || p > peak.(limit - 1)) then begin
            (* insert after equal peaks: slots walk ascending (src, dst),
               so ties resolve to the lexicographically first link —
               deterministic whatever the engine or pool size *)
            let i = ref 0 in
            while !i < !filled && peak.(!i) >= p do
              incr i
            done;
            if !i < limit then begin
              let last = min !filled (limit - 1) in
              for j = last downto !i + 1 do
                peak.(j) <- peak.(j - 1);
                lsrc.(j) <- lsrc.(j - 1);
                ldst.(j) <- ldst.(j - 1)
              done;
              peak.(!i) <- p;
              lsrc.(!i) <- src;
              ldst.(!i) <- dst;
              if !filled < limit then incr filled
            end
          end)
    done;
    let acc = ref [] in
    for i = !filled - 1 downto 0 do
      acc := (lsrc.(i), ldst.(i), peak.(i)) :: !acc
    done;
    !acc
  end
