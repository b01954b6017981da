module Graph = Graph_core.Graph
module Csr = Graph_core.Csr
module Sim = Netsim.Sim
module Network = Netsim.Network
module Env = Flood.Env
module Build = Lhg_core.Build

type params = {
  period : float;
  stability : int;
  link_timeout : float;
  retry : float;
  max_rounds : int option;
}

let default_params =
  { period = 3.0; stability = 2; link_timeout = 9.0; retry = 3.0; max_rounds = None }

type result = {
  n : int;
  k : int;
  construction : Build.construction;
  seed : int;
  converged : bool;
  verified : bool;
  certified : bool option;
  matches_target : bool;
  capped : bool;
  rounds : int;
  gossip_rounds : int;
  duration : float;
  messages : int;
  pushes : int;
  replies : int;
  link_reqs : int;
  link_acks : int;
  link_nacks : int;
  freezes : int;
  unfreezes : int;
  deaths_declared : int;
  views_interned : int;
  final_members : int array;
  declared_dead : int array;
  retired : int array;
  realized : Graph.t option;
}

(* The whole per-node machine is mutable state plus closures on the
   simulator; nothing here is shared across domains. *)
type node = {
  id : int;
  mutable vref : int;  (** current view (interned ref) *)
  mutable changed : bool;  (** view changed since last tick *)
  mutable stable : int;  (** consecutive unchanged ticks *)
  mutable round : int;  (** last executed tick index *)
  mutable frozen : bool;
  mutable gen : int;  (** freeze generation — stale-timer guard *)
  mutable freeze_round : int;
  mutable targets : int array;  (** member ids, current freeze *)
  mutable acked : bool array;
  mutable nacked : bool array;
  mutable unacked : int;
  mutable tick_pending : bool;
  mutable evicted : bool;  (** found itself outside its own live set *)
  mutable aborted : bool;  (** hit the round backstop *)
  established : (int, int) Hashtbl.t;  (** peer -> view ref of the handshake *)
}

(* bits needed for n (⌈log2 n⌉ for n ≥ 2) — scales the round backstop *)
let bits n =
  let r = ref 0 and v = ref (n - 1) in
  while !v > 0 do
    incr r;
    v := !v lsr 1
  done;
  !r

(* Peer choice is a pure splitmix64-style hash of (seed, node, round):
   drawing from the simulator RNG would entangle gossip partners with
   delivery order and break engine-identity the moment two schedules
   interleave differently. *)
let mix seed node round =
  let z =
    let open Int64 in
    let z =
      ref
        (logxor (of_int seed)
           (add
              (mul (of_int (node + 1)) 0x9E3779B97F4A7C15L)
              (mul (of_int (round + 1)) 0xBF58476D1CE4E5B9L)))
    in
    z := mul (logxor !z (shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
    z := mul (logxor !z (shift_right_logical !z 27)) 0x94D049BB133111EBL;
    z := logxor !z (shift_right_logical !z 31);
    !z
  in
  Int64.to_int z land max_int

(* the quadratic substrate is the scale bound: 8k nodes ≈ 64M directed
   slots, past which the complete underlay stops being a model and
   starts being the workload *)
let max_substrate = 8192

let run ~env ?plan ?(params = default_params) ?(certify = false) ~construction ~n ~k () =
  if n < 2 then invalid_arg "Assemble.run: n must be >= 2";
  if n > max_substrate then
    invalid_arg
      (Printf.sprintf "Assemble.run: n = %d exceeds the %d-node substrate bound" n max_substrate);
  if k < 2 then invalid_arg "Assemble.run: k must be >= 2";
  if
    not
      (params.period > 0.0 && params.link_timeout > 0.0 && params.retry > 0.0
     && params.stability >= 1)
  then invalid_arg "Assemble.run: params must be positive";
  let max_rounds =
    match params.max_rounds with
    | Some m ->
        if m < 1 then invalid_arg "Assemble.run: max_rounds must be >= 1";
        m
    | None -> (24 * bits n) + 64
  in
  let csr = Wire.substrate ~n in
  (match plan with
  | Some p -> (
      match Chaos.Plan.validate csr p with
      | Error e -> invalid_arg ("Assemble.run: invalid plan: " ^ e)
      | Ok () -> ())
  | None -> ());
  let seed = Env.seed_value env in
  let sim = Env.sim_of env in
  let net = Env.network_of_csr env ~sim ~csr in
  (match plan with Some p -> Chaos.Exec.install net p | None -> ());
  let pool = View.Pool.create () in
  let pushes = ref 0
  and replies = ref 0
  and link_reqs = ref 0
  and link_acks = ref 0
  and link_nacks = ref 0
  and freezes = ref 0
  and unfreezes = ref 0
  and deaths = ref 0
  and capped = ref false in
  (* the convergence clock: the last instant any node's protocol state
     advanced — ticks and straggler timeouts after it don't count *)
  let last_progress = ref 0.0 in
  let progress () = last_progress := Sim.now sim in
  (* target adjacency per view: |live| ranks -> member ids, computed
     once per distinct view from the shape arithmetic — the slot
     election every frozen node replays identically *)
  let target_tbl : (int, int array array option) Hashtbl.t = Hashtbl.create 16 in
  let targets_for vref =
    match Hashtbl.find_opt target_tbl vref with
    | Some x -> x
    | None ->
        let lv = View.live (View.Pool.get pool vref) in
        let n' = Array.length lv in
        let x =
          if n' < 2 * k then None
          else
            match Build.build_csr construction ~n:n' ~k with
            | Error _ -> None
            | Ok tcsr ->
                Some
                  (Array.init n' (fun r ->
                       Array.map (fun j -> lv.(j)) (Array.of_list (Csr.neighbors tcsr r))))
        in
        Hashtbl.add target_tbl vref x;
        x
  in
  let nodes =
    Array.init n (fun v ->
        {
          id = v;
          vref = View.Pool.intern pool (View.bootstrap ~self:v ~contact:((v + 1) mod n));
          changed = false;
          stable = 0;
          round = 0;
          frozen = false;
          gen = 0;
          freeze_round = 0;
          targets = [||];
          acked = [||];
          nacked = [||];
          unacked = 0;
          tick_pending = false;
          evicted = false;
          aborted = false;
          established = Hashtbl.create 8;
        })
  in
  let send nd dst tag =
    (match tag with
    | Wire.Push -> incr pushes
    | Wire.Reply -> incr replies
    | Wire.Link_req -> incr link_reqs
    | Wire.Link_ack -> incr link_acks
    | Wire.Link_nack -> incr link_nacks);
    Network.send_eidx net ~src:nd.id ~dst ~eidx:(Wire.eidx ~n nd.id dst) (Wire.pack tag nd.vref)
  in
  let tindex nd src =
    let rec go i =
      if i >= Array.length nd.targets then -1 else if nd.targets.(i) = src then i else go (i + 1)
    in
    go 0
  in
  let rec schedule_tick nd r =
    nd.tick_pending <- true;
    Sim.schedule_at sim ~time:(params.period *. float_of_int r) (fun () -> tick nd r)
  and tick nd r =
    nd.tick_pending <- false;
    if Network.is_crashed net nd.id || nd.evicted || nd.frozen then ()
    else if r >= max_rounds then begin
      nd.aborted <- true;
      capped := true
    end
    else begin
      nd.round <- r;
      let lv = View.live (View.Pool.get pool nd.vref) in
      if not (View.mem lv nd.id) then nd.evicted <- true
      else begin
        if nd.changed then begin
          nd.changed <- false;
          nd.stable <- 0
        end
        else nd.stable <- nd.stable + 1;
        if nd.stable >= params.stability && try_freeze nd r lv then ()
        else begin
          do_push nd r lv;
          schedule_tick nd (r + 1)
        end
      end
    end
  and do_push nd r lv =
    let c = Array.length lv - 1 in
    if c > 0 then begin
      let rk = View.rank lv nd.id in
      let idx = mix seed nd.id r mod c in
      let peer = lv.(if idx >= rk then idx + 1 else idx) in
      send nd peer Wire.Push
    end
  and try_freeze nd r lv =
    match targets_for nd.vref with
    | None -> false
    | Some adj ->
        nd.frozen <- true;
        nd.freeze_round <- r;
        nd.gen <- nd.gen + 1;
        incr freezes;
        progress ();
        let tg = adj.(View.rank lv nd.id) in
        nd.targets <- tg;
        let len = Array.length tg in
        nd.acked <- Array.make len false;
        nd.nacked <- Array.make len false;
        nd.unacked <- len;
        Array.iter (fun t -> send nd t Wire.Link_req) tg;
        schedule_timeout nd nd.gen;
        true
  and unfreeze nd =
    nd.frozen <- false;
    nd.gen <- nd.gen + 1;
    nd.stable <- 0;
    incr unfreezes;
    resume_tick nd
  and resume_tick nd =
    if not (nd.tick_pending || nd.evicted || nd.aborted) then begin
      let next =
        max (nd.round + 1) (int_of_float (Float.floor (Sim.now sim /. params.period)) + 1)
      in
      schedule_tick nd next
    end
  and adopt_ref nd mref =
    if mref <> nd.vref then begin
      nd.vref <- mref;
      nd.changed <- true;
      progress ();
      if nd.frozen then unfreeze nd
    end
  and schedule_timeout nd gen =
    Sim.schedule sim ~delay:params.link_timeout (fun () -> link_timeout nd gen)
  and link_timeout nd gen =
    if (not (Network.is_crashed net nd.id)) && nd.frozen && nd.gen = gen && nd.unacked > 0 then begin
      let silent = ref [] in
      Array.iteri
        (fun i t -> if (not nd.acked.(i)) && not nd.nacked.(i) then silent := t :: !silent)
        nd.targets;
      match !silent with
      | [] ->
          (* every pending target answered with a nack recently — the
             retry cycle is alive, keep watching *)
          schedule_timeout nd gen
      | dead ->
          (* silence is the only crash signal a node gets *)
          let deadarr = Array.of_list dead in
          deaths := !deaths + Array.length deadarr;
          adopt_ref nd (View.Pool.intern pool (View.add_dead (View.Pool.get pool nd.vref) deadarr))
    end
  and retry_link nd gen i =
    if (not (Network.is_crashed net nd.id)) && nd.frozen && nd.gen = gen && not nd.acked.(i)
    then begin
      (* clear the nack evidence: if the peer is dead by now, the next
         timeout sees silence and declares it *)
      nd.nacked.(i) <- false;
      send nd nd.targets.(i) Wire.Link_req
    end
  in
  Network.set_receiver net (fun ~dst ~src payload ->
      let nd = nodes.(dst) in
      let tag, vref = Wire.unpack payload in
      match tag with
      | Wire.Push ->
          adopt_ref nd (View.Pool.merge_refs pool nd.vref vref);
          send nd src Wire.Reply
      | Wire.Reply -> adopt_ref nd (View.Pool.merge_refs pool nd.vref vref)
      | Wire.Link_req ->
          if nd.frozen && vref = nd.vref then begin
            Hashtbl.replace nd.established src nd.vref;
            progress ();
            send nd src Wire.Link_ack
          end
          else begin
            (* merge first so the nack carries the union — the
               requester learns everything we know in one message *)
            adopt_ref nd (View.Pool.merge_refs pool nd.vref vref);
            send nd src Wire.Link_nack
          end
      | Wire.Link_ack ->
          if nd.frozen && vref = nd.vref then begin
            let i = tindex nd src in
            if i >= 0 && not nd.acked.(i) then begin
              nd.acked.(i) <- true;
              nd.unacked <- nd.unacked - 1;
              Hashtbl.replace nd.established src nd.vref;
              progress ()
            end
          end
      | Wire.Link_nack ->
          let merged = View.Pool.merge_refs pool nd.vref vref in
          if merged <> nd.vref then adopt_ref nd merged
          else if nd.frozen then begin
            (* the responder is behind us: it unfroze on our req and
               will catch up — re-request after a round *)
            let i = tindex nd src in
            if i >= 0 && not nd.acked.(i) then begin
              nd.nacked.(i) <- true;
              let gen = nd.gen in
              Sim.schedule sim ~delay:params.retry (fun () -> retry_link nd gen i)
            end
          end);
  Array.iter (fun nd -> schedule_tick nd 0) nodes;
  Sim.run sim;
  let duration = Sim.now sim in
  let everc = Network.ever_crashed net in
  let retired = ref [] in
  for v = n - 1 downto 0 do
    if everc.(v) then retired := v :: !retired
  done;
  let participants = ref [] in
  for v = n - 1 downto 0 do
    if not everc.(v) then participants := nodes.(v) :: !participants
  done;
  let participants = !participants in
  let consensus =
    match participants with
    | [] -> None
    | first :: rest ->
        let settled nd = nd.frozen && nd.unacked = 0 && (not nd.aborted) && not nd.evicted in
        if
          settled first
          && List.for_all (fun nd -> settled nd && nd.vref = first.vref) rest
          &&
          let lv = View.live (View.Pool.get pool first.vref) in
          List.for_all (fun nd -> View.mem lv nd.id) participants
        then Some first.vref
        else None
  in
  let converged = consensus <> None in
  let final_members, declared_dead =
    match consensus with
    | None -> ([||], [||])
    | Some v0 ->
        let v = View.Pool.get pool v0 in
        (View.live v, v.View.dead)
  in
  (* the realized overlay: an edge exists iff both endpoints recorded
     the handshake under the consensus view *)
  let realized =
    match consensus with
    | None -> None
    | Some v0 ->
        let lv = final_members in
        let n' = Array.length lv in
        let g = Graph.create ~n:n' in
        Array.iteri
          (fun r u ->
            let peers =
              Hashtbl.fold
                (fun p pref acc -> if pref = v0 && p > u then p :: acc else acc)
                nodes.(u).established []
              |> List.sort compare
            in
            List.iter
              (fun p ->
                match Hashtbl.find_opt nodes.(p).established u with
                | Some pref when pref = v0 ->
                    let rp = View.rank lv p in
                    if rp >= 0 then Graph.add_edge g r rp
                | _ -> ())
              peers)
          lv;
        Some g
  in
  let verified =
    match realized with
    | None -> false
    | Some g -> Lhg_core.Verify.quick ?pool:env.Env.pool g ~k
  in
  let matches_target =
    match realized with
    | None -> false
    | Some g -> (
        match Build.build_csr construction ~n:(Graph.n g) ~k with
        | Error _ -> false
        | Ok t ->
            Graph.m g = Csr.m t
            &&
            let ok = ref true in
            for r = 0 to Csr.n t - 1 do
              Csr.iter_neighbors t r (fun j -> if j > r && not (Graph.has_edge g r j) then ok := false)
            done;
            !ok)
  in
  let certified =
    if not certify then None
    else
      Some
        (match realized with
        | None -> false
        | Some g ->
            let c = Overlay.Cert.create ~k in
            Overlay.Cert.rebuild c ~graph:g)
  in
  let gossip_rounds =
    List.fold_left (fun a nd -> if nd.frozen then max a nd.freeze_round else a) 0 participants
  in
  let rounds = int_of_float (Float.ceil (!last_progress /. params.period)) in
  let stats = Network.stats net in
  let obs = env.Env.obs in
  if Obs.Registry.enabled obs then begin
    Obs.Registry.add (Obs.Registry.counter obs "assemble.pushes") !pushes;
    Obs.Registry.add (Obs.Registry.counter obs "assemble.link_reqs") !link_reqs;
    Obs.Registry.add (Obs.Registry.counter obs "assemble.freezes") !freezes;
    Obs.Registry.add (Obs.Registry.counter obs "assemble.unfreezes") !unfreezes;
    Obs.Registry.add (Obs.Registry.counter obs "assemble.deaths_declared") !deaths;
    Obs.Registry.set_max (Obs.Registry.gauge obs "assemble.rounds") (float_of_int rounds)
  end;
  {
    n;
    k;
    construction;
    seed;
    converged;
    verified;
    certified;
    matches_target;
    capped = !capped;
    rounds;
    gossip_rounds;
    duration;
    messages = stats.Network.sent;
    pushes = !pushes;
    replies = !replies;
    link_reqs = !link_reqs;
    link_acks = !link_acks;
    link_nacks = !link_nacks;
    freezes = !freezes;
    unfreezes = !unfreezes;
    deaths_declared = !deaths;
    views_interned = View.Pool.size pool;
    final_members;
    declared_dead;
    retired = Array.of_list !retired;
    realized;
  }

let construction_name = function
  | Build.Ktree -> "ktree"
  | Build.Kdiamond -> "kdiamond"
  | Build.Kdiamond_rich -> "kdiamond_rich"
  | Build.Jd { strict } -> if strict then "jd" else "jd_relaxed"

let schema = "lhg-assemble/1"

let to_json r =
  let module S = Obs.Stream in
  let s = S.create ~schema () in
  S.str s "mode" "run";
  S.str s "construction" (construction_name r.construction);
  S.int s "n" r.n;
  S.int s "k" r.k;
  S.int s "seed" r.seed;
  S.obj s "protocol" (fun s ->
      S.int s "rounds" r.rounds;
      S.int s "gossip_rounds" r.gossip_rounds;
      S.float s "duration" r.duration;
      S.bool s "capped" r.capped;
      S.int s "freezes" r.freezes;
      S.int s "unfreezes" r.unfreezes;
      S.int s "deaths_declared" r.deaths_declared;
      S.int s "views_interned" r.views_interned);
  S.obj s "messages" (fun s ->
      S.int s "total" r.messages;
      S.int s "pushes" r.pushes;
      S.int s "replies" r.replies;
      S.int s "link_reqs" r.link_reqs;
      S.int s "link_acks" r.link_acks;
      S.int s "link_nacks" r.link_nacks);
  S.obj s "members" (fun s ->
      S.int s "final" (Array.length r.final_members);
      S.ints s "declared_dead" (Array.to_list r.declared_dead);
      S.ints s "retired" (Array.to_list r.retired));
  (match r.realized with
  | None -> S.null s "realized_edges"
  | Some g -> S.int s "realized_edges" (Graph.m g));
  (match r.certified with
  | None -> S.null s "certified"
  | Some b -> S.bool s "certified" b);
  S.summary s (fun s ->
      S.bool s "converged" r.converged;
      S.bool s "verified" r.verified;
      S.bool s "matches_target" r.matches_target;
      S.int s "rounds" r.rounds;
      S.int s "messages" r.messages);
  S.contents s
