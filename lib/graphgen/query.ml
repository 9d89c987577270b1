module Prng = Dstress_util.Prng
module Reference = Dstress_risk.Reference
module En_program = Dstress_risk.En_program
module Egj_program = Dstress_risk.Egj_program
module Engine = Dstress_runtime.Engine
module Graph = Dstress_runtime.Graph
module Service = Dstress_runtime.Service
module Obs = Dstress_obs.Obs

type network = En of Reference.en_instance | Egj of Reference.egj_instance

let network ~shock (req : Service.request) =
  let prng = Prng.of_int req.seed in
  let topo = Topology.core_periphery prng ~core:req.core ~periphery:req.periphery () in
  match req.workload with
  | Service.En -> En (Banking.shock_en prng (Banking.en_of_topology prng topo ()) topo shock)
  | Service.Egj ->
      Egj (Banking.shock_egj prng (Banking.egj_of_topology prng topo ()) topo shock)

type build = {
  program : Dstress_runtime.Vertex_program.t;
  graph : Graph.t;
  degree : int;
  states : Dstress_util.Bitvec.t array;
}

(* The protocol's fixed-point encodings (word bits, fraction bits,
   dollars per unit) and output sensitivity. *)
let en_l, en_scale = (12, 0.25)
let egj_l, egj_frac, egj_scale = (16, 6, 4.0)
let sensitivity = 20

let build ~epsilon ~shock ({ Service.iterations; _ } as req) =
  match network ~shock req with
  | En inst ->
      let graph = En_program.graph_of_instance inst in
      let degree = Graph.max_degree graph in
      let program = En_program.make ~epsilon ~sensitivity ~l:en_l ~degree ~iterations () in
      En_program.encode inst ~graph ~l:en_l ~degree ~scale:en_scale
      |> Result.map (fun states -> { program; graph; degree; states })
  | Egj inst ->
      let graph = Egj_program.graph_of_instance inst in
      let degree = Graph.max_degree graph in
      let l = egj_l and frac = egj_frac in
      let program = Egj_program.make ~epsilon ~sensitivity ~l ~frac ~degree ~iterations () in
      Egj_program.encode inst ~graph ~l ~frac ~degree ~scale:egj_scale
      |> Result.map (fun states -> { program; graph; degree; states })

let run ~grp ~obs_level ~fault_plan ~max_retries ~backoff (req : Service.request) b =
  let executor =
    match Service.request_executor req with
    | Ok e -> e
    | Error m -> invalid_arg ("Query.run: " ^ m)
  in
  let cfg =
    { (Engine.default_config grp ~k:req.k ~degree_bound:b.degree
         ~seed:(string_of_int req.seed))
      with
      Engine.executor;
      ot_mode = req.ot_mode;
      preprocess = req.preprocess;
      obs_level;
      fault_plan;
      max_retries;
      backoff;
    }
  in
  Engine.run cfg b.program ~graph:b.graph ~initial_states:b.states

let tds workload output =
  match workload with
  | Service.En -> En_program.decode_output ~scale:en_scale output
  | Service.Egj -> Egj_program.decode_output ~scale:egj_scale ~frac:egj_frac output

let handler ~grp ~epsilon ~shock req =
  build ~epsilon ~shock req
  |> Result.map (fun b ->
         let report =
           run ~grp ~obs_level:Obs.Full ~fault_plan:Dstress_faults.Fault.empty ~max_retries:2
             ~backoff:0.05 req b
         in
         {
           Service.output = report.Engine.output;
           mpc_rounds = report.Engine.mpc_rounds;
           mpc_and_gates = report.Engine.mpc_and_gates;
           mpc_ots = report.Engine.mpc_ots;
           trace = Obs.trace_json report.Engine.obs;
           metrics = Obs.metrics_json report.Engine.obs;
         })
