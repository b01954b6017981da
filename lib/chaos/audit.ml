module Graph = Graph_core.Graph
module Csr = Graph_core.Csr
module Prng = Graph_core.Prng
module Env = Flood.Env

type witness = {
  crashed_nodes : int list;
  downed_links : (int * int) list;
  unreached : int list;
}

type plan_report = {
  index : int;
  plan : Plan.t;
  weight : int;
  stochastic : bool;
  complete : bool;
  delivered : int;
  obligated : int;
  completion_time : float;
  messages : int;
  witness : witness option;
}

type row = { faults : int; plans : int; complete_plans : int; stochastic_plans : int }

type t = {
  k : int;
  source : int;
  reports : plan_report list;
  matrix : row list;
  boundary_ok : bool;
  violations : plan_report list;
}

module Iset = Set.Make (Int)

module Lset = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let norm_link (u, v) = if u <= v then (u, v) else (v, u)

(* env's own hook (if any) first, then the plan's *)
let compose_prepare (base : Env.prepare option) plan net =
  Option.iter (fun first -> first net) base;
  Exec.install net plan

let run_one ~env ~graph ~source ~csr ~static_crashed ~static_links ~seed ~obs ~index plan =
  let crashed_all =
    Iset.union static_crashed (Iset.of_list (Plan.crash_victims plan)) |> Iset.elements
  in
  let downed_all =
    Lset.union static_links (Lset.of_list (Plan.downed_links csr plan)) |> Lset.elements
  in
  let weight = List.length crashed_all + List.length downed_all in
  let stochastic = env.Env.loss_rate > 0.0 || Plan.stochastic plan in
  let run_env =
    {
      env with
      Env.seed = Some seed;
      obs;
      pool = None;
      prepare = Some (compose_prepare env.Env.prepare plan);
    }
  in
  let r = Flood.Flooding.run_env ~env:run_env ~graph ~source () in
  let n = Graph.n graph in
  let obliged = Array.make n true in
  List.iter (fun v -> obliged.(v) <- false) crashed_all;
  let obligated = ref 0 and delivered = ref 0 and unreached = ref [] in
  for v = n - 1 downto 0 do
    if obliged.(v) then begin
      incr obligated;
      if r.Flood.Flooding.delivered.(v) then incr delivered else unreached := v :: !unreached
    end
  done;
  let complete = !delivered = !obligated in
  {
    index;
    plan;
    weight;
    stochastic;
    complete;
    delivered = !delivered;
    obligated = !obligated;
    completion_time = r.Flood.Flooding.completion_time;
    messages = r.Flood.Flooding.messages_sent;
    witness =
      (if complete then None
       else Some { crashed_nodes = crashed_all; downed_links = downed_all; unreached = !unreached });
  }

let matrix_of reports =
  let by_weight = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let plans, complete, stoch =
        match Hashtbl.find_opt by_weight r.weight with Some x -> x | None -> (0, 0, 0)
      in
      Hashtbl.replace by_weight r.weight
        ( plans + 1,
          (complete + if r.complete then 1 else 0),
          (stoch + if r.stochastic then 1 else 0) ))
    reports;
  Hashtbl.fold
    (fun faults (plans, complete_plans, stochastic_plans) acc ->
      { faults; plans; complete_plans; stochastic_plans } :: acc)
    by_weight []
  |> List.sort (fun a b -> compare a.faults b.faults)

let derive_seeds ~env n =
  let rng = Prng.create ~seed:(Env.seed_value env) in
  Array.init n (fun _ -> Int64.to_int (Prng.bits64 rng) land max_int)

let run ~env ~graph ~k ~source ~plans =
  if k < 1 then invalid_arg "Audit.run: k < 1";
  let n = Graph.n graph in
  if source < 0 || source >= n then invalid_arg "Audit.run: source out of range";
  if List.mem source env.Env.crashed then invalid_arg "Audit.run: source is statically crashed";
  let csr = Csr.of_graph graph in
  let plans = Array.of_list plans in
  Array.iteri
    (fun i p ->
      match Plan.validate csr p with
      | Ok () -> ()
      | Error msg -> invalid_arg (Printf.sprintf "Audit.run: plan %d: %s" i msg))
    plans;
  let static_crashed = Iset.of_list env.Env.crashed in
  let static_links = Lset.of_list (List.map norm_link env.Env.failed_links) in
  let nplans = Array.length plans in
  (* per-plan seeds derive sequentially up front, so the sweep is
     bit-identical at any domain count *)
  let seeds = derive_seeds ~env nplans in
  let observed = Obs.Registry.enabled env.Env.obs in
  let reports = Array.make nplans None in
  let one ~obs i =
    reports.(i) <-
      Some
        (run_one ~env ~graph ~source ~csr ~static_crashed ~static_links ~seed:seeds.(i) ~obs
           ~index:i plans.(i))
  in
  (match env.Env.pool with
  | Some pool when Par.Pool.size pool > 1 && nplans > 1 ->
      (* domains must not share a registry, so the parallel sweep pays
         one registry per plan; merging in plan order keeps the
         aggregate identical to the sequential path *)
      let registries =
        Array.init nplans (fun _ -> if observed then Obs.Registry.create () else Obs.Registry.nil)
      in
      Par.Pool.parallel_for pool ~lo:0 ~hi:nplans (fun ~worker:_ i -> one ~obs:registries.(i) i);
      if observed then Array.iter (fun r -> Obs.Registry.merge env.Env.obs r) registries
  | _ ->
      (* sequential sweeps reuse one scratch registry: merge after each
         plan, clear, go again — no per-plan allocation *)
      let scratch = if observed then Obs.Registry.create () else Obs.Registry.nil in
      Array.iteri
        (fun i _ ->
          one ~obs:scratch i;
          if observed then begin
            Obs.Registry.merge env.Env.obs scratch;
            Obs.Registry.clear scratch
          end)
        plans);
  let reports = Array.to_list reports |> List.filter_map Fun.id in
  let violations =
    List.filter (fun r -> (not r.stochastic) && r.weight <= k - 1 && not r.complete) reports
  in
  {
    k;
    source;
    reports;
    matrix = matrix_of reports;
    boundary_ok = violations = [];
    violations;
  }

let first_witness t =
  List.fold_left
    (fun best r ->
      if r.complete then best
      else
        match best with
        | None -> Some r
        | Some b -> if r.weight < b.weight then Some r else best)
    None t.reports
