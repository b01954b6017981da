module Graph = Graph_core.Graph
module Sim = Netsim.Sim
module Network = Netsim.Network

type publication = { origin : int; inject_time : float; payload_id : int }

type message_stats = {
  payload_id : int;
  origin : int;
  delivered_count : int;
  completion : float;
  covers_all_alive : bool;
}

type result = { per_message : message_stats list; total_messages : int; all_covered : bool }

let run_env ~env ~graph ~publications () =
  let crashed = env.Env.crashed in
  let obs = env.Env.obs in
  let n = Graph.n graph in
  let ids = List.map (fun (p : publication) -> p.payload_id) publications in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Multi.run: duplicate payload ids";
  List.iter
    (fun (p : publication) ->
      if p.origin < 0 || p.origin >= n then invalid_arg "Multi.run: origin out of range";
      if List.mem p.origin crashed then invalid_arg "Multi.run: origin is crashed";
      if p.inject_time < 0.0 then invalid_arg "Multi.run: negative injection time")
    publications;
  let sim = Env.sim_of env in
  let net = Env.network_of_graph env ~sim ~graph in
  (* per publication, by its index in [publications] — which is also
     its wire message: delivery flags and latest first-delivery time *)
  let pubs = Array.of_list publications in
  let seen = Array.map (fun _ -> Array.make n false) pubs in
  let last_delivery = Array.make (Array.length pubs) 0.0 in
  let record i v =
    let flags = seen.(i) in
    if flags.(v) then false
    else begin
      flags.(v) <- true;
      true
    end
  in
  let csr = Network.csr net in
  let forward v ~except i =
    Graph_core.Csr.iter_neighbors csr v (fun w ->
        if w <> except then Network.send net ~src:v ~dst:w i)
  in
  Network.set_receiver net (fun ~dst ~src i ->
      if record i dst then begin
        last_delivery.(i) <- Sim.now sim;
        forward dst ~except:src i
      end);
  Array.iteri
    (fun i (p : publication) ->
      (* an origin a chaos plan has crashed by then never publishes *)
      Sim.schedule_at sim ~time:p.inject_time (fun () ->
          if (not (Network.is_crashed net p.origin)) && record i p.origin then
            forward p.origin ~except:(-1) i))
    pubs;
  Sim.run sim;
  let alive = Network.alive_mask net in
  let per_message =
    List.mapi (fun i p -> (i, p)) publications
    |> List.sort (fun (_, (a : publication)) (_, (b : publication)) ->
           compare a.payload_id b.payload_id)
    |> List.map (fun (i, (p : publication)) ->
           let flags = seen.(i) in
           let delivered_count =
             Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 flags
           in
           let covers =
             let ok = ref true in
             Array.iteri (fun v live -> if live && not flags.(v) then ok := false) alive;
             !ok
           in
           {
             payload_id = p.payload_id;
             origin = p.origin;
             delivered_count;
             completion = max 0.0 (last_delivery.(i) -. p.inject_time);
             covers_all_alive = covers;
           })
  in
  (if Obs.Registry.enabled obs then begin
     let h = Obs.Registry.histogram obs "multi.completion" ~bounds:Obs.Registry.time_bounds in
     List.iter (fun m -> Obs.Registry.observe h m.completion) per_message;
     Obs.Registry.add (Obs.Registry.counter obs "multi.payloads") (List.length per_message)
   end);
  {
    per_message;
    total_messages = (Network.stats net).Network.sent;
    all_covered = List.for_all (fun m -> m.covers_all_alive) per_message;
  }
