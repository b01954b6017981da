type prepare = Netsim.Network.t -> unit

type t = {
  latency : Netsim.Network.latency option;
  loss_rate : float;
  processing_delay : float;
  link_capacity : float option;
  queue_cap : int option;
  queue_policy : Netsim.Network.queue_policy option;
  bands : int;
  crashed : int list;
  failed_links : (int * int) list;
  seed : int option;
  obs : Obs.Registry.t;
  pool : Par.Pool.t option;
  prepare : prepare option;
  engine : Netsim.Sim.engine option;
  trace : Netsim.Trace.t option;
}

let default =
  {
    latency = None;
    loss_rate = 0.0;
    processing_delay = 0.0;
    link_capacity = None;
    queue_cap = None;
    queue_policy = None;
    bands = 1;
    crashed = [];
    failed_links = [];
    seed = None;
    obs = Obs.Registry.nil;
    pool = None;
    prepare = None;
    engine = None;
    trace = None;
  }

let make ?latency ?(loss_rate = 0.0) ?(processing_delay = 0.0) ?link_capacity ?queue_cap
    ?queue_policy ?(bands = 1) ?(crashed = []) ?(failed_links = []) ?seed
    ?(obs = Obs.Registry.nil) ?pool ?prepare ?engine ?trace () =
  {
    latency;
    loss_rate;
    processing_delay;
    link_capacity;
    queue_cap;
    queue_policy;
    bands;
    crashed;
    failed_links;
    seed;
    obs;
    pool;
    prepare;
    engine;
    trace;
  }

let with_latency l t = { t with latency = Some l }

let with_loss_rate loss_rate t = { t with loss_rate }

let with_processing_delay processing_delay t = { t with processing_delay }

let with_link_capacity c t = { t with link_capacity = Some c }

let with_queue_cap c t = { t with queue_cap = Some c }

let with_queue_policy p t = { t with queue_policy = Some p }

let with_bands bands t = { t with bands }

let without_link_capacity t = { t with link_capacity = None; queue_cap = None; queue_policy = None }

let with_crashed crashed t = { t with crashed }

let with_failed_links failed_links t = { t with failed_links }

let with_seed seed t = { t with seed = Some seed }

let with_obs obs t = { t with obs }

let with_pool pool t = { t with pool }

let with_prepare p t = { t with prepare = Some p }

let with_engine e t = { t with engine = Some e }

let with_trace tr t = { t with trace = Some tr }

(* must match Netsim.Sim.create's default seed *)
let default_seed = 0x51

let seed_value t = match t.seed with Some s -> s | None -> default_seed

(* The one place the environment is lowered onto a simulator + network
   pair: every protocol's [run_env] goes through here, so a new Env
   knob (capacity, queue policy, …) reaches all run surfaces at once
   instead of being re-threaded call site by call site. The static
   faults and the prepare hook are applied here too, so no protocol
   repeats that preamble. *)
let sim_of t = Netsim.Sim.create ?seed:t.seed ?engine:t.engine ~obs:t.obs ()

let inject t net =
  List.iter (fun v -> Netsim.Network.crash net v) t.crashed;
  List.iter (fun (u, v) -> Netsim.Network.fail_link net u v) t.failed_links;
  (match t.prepare with Some prepare -> prepare net | None -> ());
  net

let network_of_graph t ~sim ~graph =
  inject t
    (Netsim.Network.create ~sim ~graph ?latency:t.latency ~loss_rate:t.loss_rate
       ~processing_delay:t.processing_delay ?link_capacity:t.link_capacity
       ?queue_cap:t.queue_cap ?queue_policy:t.queue_policy ~bands:t.bands ?trace:t.trace
       ~obs:t.obs ())

let network_of_csr t ~sim ~csr =
  inject t
    (Netsim.Network.create_csr ~sim ~csr ?latency:t.latency ~loss_rate:t.loss_rate
       ~processing_delay:t.processing_delay ?link_capacity:t.link_capacity
       ?queue_cap:t.queue_cap ?queue_policy:t.queue_policy ~bands:t.bands ?trace:t.trace
       ~obs:t.obs ())
