(** Scheduling a fault plan onto a live simulation.

    The bridge between pure {!Plan} data and a running
    {!Netsim.Network}: {!install} turns every timed event into a
    simulator callback, so faults fire at their virtual times
    interleaved with the protocol's own messages, and every fault and
    heal is emitted as an {!Obs.Registry} span event by the network
    layer. {!prepare_hook} packages that as a {!Flood.Env.prepare}, the
    hook every [run_env] protocol entry point honours — which is how
    {!Audit} injects chaos into protocols that know nothing about
    plans. *)

val install : Netsim.Network.t -> Plan.t -> unit
(** Schedule every event of the plan at its absolute virtual time on
    the network's simulator. [Partition] is expanded against the
    network's frozen topology snapshot at fire time; crash/recover and
    link down/up apply idempotently (see {!Netsim.Network}). Call
    before the simulation starts draining (plans assume time 0 is the
    protocol's first send).
    @raise Invalid_argument via the network layer if the plan is
    structurally invalid for the topology — {!Plan.validate} first. *)

val prepare_hook : Plan.t -> Flood.Env.prepare
(** [fun net -> install net plan] — thread through
    {!Flood.Env.with_prepare}. *)
