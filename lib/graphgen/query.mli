(** One clearing query: what a {!Dstress_runtime.Service.request}
    computes.

    §4's case study runs each systemic-risk model as a vertex program
    over L-bit fixed-point values, so the network recipe, the encodings
    and the sensitivity are part of the protocol. This module is their
    one owner: [dstress stress] runs a query built from its flags, and
    [dstress serve] answers each request with {!handler}, so a served
    request computes exactly what a solo run of the same seed does. *)

type network =
  | En of Dstress_risk.Reference.en_instance
  | Egj of Dstress_risk.Reference.egj_instance

val network : shock:Banking.shock -> Dstress_runtime.Service.request -> network
(** The request's seeded core–periphery economy for its workload, after
    [shock]. *)

type build = {
  program : Dstress_runtime.Vertex_program.t;
  graph : Dstress_runtime.Graph.t;
  degree : int;  (** the graph's maximum degree: the run's public bound D *)
  states : Dstress_util.Bitvec.t array;
}

val build :
  epsilon:float ->
  shock:Banking.shock ->
  Dstress_runtime.Service.request ->
  (build, string) result
(** The {!network}'s program, graph and initial states at the protocol's
    encodings: EN at l = 12 and $0.25 per unit, EGJ at l = 16 with 6
    fraction bits and $4 per unit, both with sensitivity 20. [Error]
    names the first value of the network that does not fit its word
    (e.g. a bank's total debt above $1,023.75 for EN); nothing runs. *)

val run :
  grp:Dstress_crypto.Group.t ->
  obs_level:Dstress_obs.Obs.level ->
  fault_plan:Dstress_faults.Fault.plan ->
  max_retries:int ->
  backoff:float ->
  Dstress_runtime.Service.request ->
  build ->
  Dstress_runtime.Engine.report
(** The engine run of the request's {!build} from its seed, k, OT mode,
    preprocessing and executor spec. Raises [Invalid_argument] if the
    spec does not parse. *)

val tds : Dstress_runtime.Service.workload -> int -> float
(** A released output in dollars: the noised total dollar shortfall. *)

val handler :
  grp:Dstress_crypto.Group.t ->
  epsilon:float ->
  shock:Banking.shock ->
  Dstress_runtime.Service.request ->
  (Dstress_runtime.Service.summary, string) result
(** What [dstress serve] runs for a request: {!run} at full
    observability, without faults, with 2 retries and 50 ms backoff,
    summarized with its tick-domain trace and metrics exports, or
    {!build}'s [Error]. *)
