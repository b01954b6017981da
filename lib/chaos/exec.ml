module Network = Netsim.Network
module Sim = Netsim.Sim

let apply net = function
  | Plan.Crash v -> Network.crash net v
  | Plan.Recover v -> Network.recover net v
  | Plan.Link_down (u, v) -> Network.fail_link net u v
  | Plan.Link_up (u, v) -> Network.restore_link net u v
  | Plan.Partition vs ->
      List.iter (fun (u, v) -> Network.fail_link net u v) (Plan.cut_edges (Network.csr net) vs)
  | Plan.Heal -> Network.heal net
  | Plan.Loss_rate r -> Network.set_loss_rate net r

let install net plan =
  let sim = Network.sim net in
  List.iter
    (fun { Plan.at; event } -> Sim.schedule_at sim ~time:at (fun () -> apply net event))
    (Plan.events plan)

let prepare_hook plan net = install net plan
