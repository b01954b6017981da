module Graph = Graph_core.Graph
module Sim = Netsim.Sim
module Network = Netsim.Network

type result = {
  informed : bool array;
  completed : bool;
  completion_detected_at : float;
  last_delivery_at : float;
  messages : int;
}

(* the two message kinds, as wire words *)
let propagate = 0

let echo = 1

let run_env ~env ~graph ~source () =
  if env.Env.loss_rate > 0.0 then
    invalid_arg "Pif.run: loss_rate unsupported (echo accounting assumes reliable channels)";
  let crashed = env.Env.crashed in
  let obs = env.Env.obs in
  let n = Graph.n graph in
  if source < 0 || source >= n then invalid_arg "Pif.run: source out of range";
  if List.mem source crashed then invalid_arg "Pif.run: source is crashed";
  let sim = Env.sim_of env in
  let net = Env.network_of_graph env ~sim ~graph in
  let m_echoes = Obs.Registry.counter obs "pif.echoes" in
  let informed = Array.make n false in
  let parent = Array.make n (-1) in
  let pending = Array.make n 0 in
  let completed = ref false in
  let completion_at = ref (-1.0) in
  let last_delivery = ref 0.0 in
  let close_node v =
    (* v's subtree has fully echoed *)
    if v = source then begin
      completed := true;
      completion_at := Sim.now sim
    end
    else Network.send net ~src:v ~dst:parent.(v) echo
  in
  let csr = Network.csr net in
  let propagate_from v ~except =
    let sent = ref 0 in
    Graph_core.Csr.iter_neighbors csr v (fun w ->
        if w <> except then begin
          Network.send net ~src:v ~dst:w propagate;
          incr sent
        end);
    pending.(v) <- !sent;
    if !sent = 0 then close_node v
  in
  Network.set_receiver net (fun ~dst ~src msg ->
      if msg = propagate then begin
        if informed.(dst) then
          (* already part of the wave: answer immediately *)
          Network.send net ~src:dst ~dst:src echo
        else begin
          informed.(dst) <- true;
          last_delivery := Sim.now sim;
          parent.(dst) <- src;
          propagate_from dst ~except:src
        end
      end
      else begin
        Obs.Registry.incr m_echoes;
        pending.(dst) <- pending.(dst) - 1;
        if pending.(dst) = 0 && informed.(dst) then close_node dst
      end);
  informed.(source) <- true;
  propagate_from source ~except:(-1);
  Sim.run sim;
  (if Obs.Registry.enabled obs then begin
     Obs.Registry.set (Obs.Registry.gauge obs "pif.completed") (if !completed then 1.0 else 0.0);
     Obs.Registry.set (Obs.Registry.gauge obs "pif.completion_detected_at") !completion_at;
     Obs.Registry.set (Obs.Registry.gauge obs "pif.last_delivery_at") !last_delivery
   end);
  {
    informed;
    completed = !completed;
    completion_detected_at = !completion_at;
    last_delivery_at = !last_delivery;
    messages = (Network.stats net).Network.sent;
  }
