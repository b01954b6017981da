(** Reliable broadcast: flooding plus anti-entropy repair.

    Plain flooding is reliable against ≤ k−1 crash/link failures but not
    against *message loss* — a lost copy can leave a subtree unserved
    when the redundant copies are lost too. This protocol adds the
    classic repair layer: periodically every node sends a digest of the
    payload ids it holds to one random neighbour, which pushes back
    anything the sender is missing. On a connected survivor graph every
    payload eventually reaches every live node with probability 1; the
    experiment of interest is the time/message price of that certainty
    as the loss rate grows. *)

type result = {
  delivered_fraction : float;
      (** delivered (node, payload) pairs over alive nodes × payloads at
          the simulation horizon *)
  complete : bool;  (** all alive nodes had all payloads by the horizon *)
  completion_time : float option;  (** when completeness was first reached *)
  flood_messages : int;  (** sends by the flooding phase *)
  repair_messages : int;  (** digest + data sends by anti-entropy *)
  repair_messages_at_completion : int option;
      (** repair sends issued up to the moment completeness was reached —
          the actual price of certainty (anti-entropy keeps humming
          afterwards since nodes cannot observe global completion) *)
}

val run_env :
  env:Env.t ->
  graph:Graph_core.Graph.t ->
  publications:Multi.publication list ->
  anti_entropy_period:float ->
  duration:float ->
  unit ->
  result
(** Run the stack until [duration] (virtual time) under the given
    environment — the sole entry point (see {!Env} for the Env-only
    contract). Every {!Env.t} field except [pool] is consumed.
    Anti-entropy ticks start phase-shifted per node to avoid
    synchronisation artefacts. Same argument validation as
    {!Multi.run_env}. With an enabled [env.obs], publishes the
    [reliable.flood_messages]/[reliable.repair_messages] counters,
    the [reliable.delivered_fraction]/[reliable.completion_time]
    gauges, and a [Retransmit] span event per anti-entropy [Data]
    resend.

    Completeness accounting targets the nodes alive at t = 0: this is
    the protocol whose anti-entropy actually repairs chaos-plan
    recoveries, but a node crashed by a plan mid-run keeps its
    obligations (the run then reports [complete = false] unless repair
    reaches it after recovery). As in {!Multi.run_env}, a publication
    whose origin is crashed at its injection time is never sent. *)
