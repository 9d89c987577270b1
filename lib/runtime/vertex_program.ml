module Builder = Dstress_circuit.Builder
module Word = Dstress_circuit.Word
module Mechanism = Dstress_dp.Mechanism
module Noise_circuit = Dstress_dp.Noise_circuit

type t = {
  name : string;
  state_bits : int;
  message_bits : int;
  iterations : int;
  sensitivity : int;
  epsilon : float;
  noise_max_magnitude : int;
  agg_bits : int;
  build_update :
    Builder.t -> state:Word.t -> incoming:Word.t array -> Word.t * Word.t array;
  build_aggregand : Builder.t -> state:Word.t -> Word.t;
}

let update_circuit p ~degree =
  let b = Builder.create () in
  let state = Word.inputs b ~bits:p.state_bits in
  let incoming = Array.init degree (fun _ -> Word.inputs b ~bits:p.message_bits) in
  let new_state, outgoing = p.build_update b ~state ~incoming in
  if Word.width new_state <> p.state_bits then
    invalid_arg "Vertex_program.update_circuit: bad state width";
  if Array.length outgoing <> degree then
    invalid_arg "Vertex_program.update_circuit: bad outgoing count";
  Array.iter
    (fun m ->
      if Word.width m <> p.message_bits then
        invalid_arg "Vertex_program.update_circuit: bad message width")
    outgoing;
  Builder.finish b ~outputs:(Array.concat (new_state :: Array.to_list outgoing))

let partial_aggregate_circuit p ~count =
  let b = Builder.create () in
  let states = Array.init count (fun _ -> Word.inputs b ~bits:p.state_bits) in
  let terms = Array.to_list (Array.map (fun s -> p.build_aggregand b ~state:s) states) in
  let sum = Word.sum b ~bits:p.agg_bits terms in
  Builder.finish b ~outputs:sum

let noised_sum p b terms =
  let sum = Word.sum b ~bits:p.agg_bits terms in
  let uniform = Word.inputs b ~bits:Noise_circuit.default_uniform_bits in
  let sign = Builder.input b in
  let alpha = Mechanism.alpha_of_epsilon ~epsilon:(p.epsilon /. float_of_int p.sensitivity) in
  Noise_circuit.add_noise b ~alpha ~max_magnitude:p.noise_max_magnitude
    ~value:sum ~uniform ~sign

let combine_circuit p ~count ~noised =
  let b = Builder.create () in
  let partials = Array.init count (fun _ -> Word.inputs b ~bits:p.agg_bits) in
  let terms = Array.to_list partials in
  let out =
    if noised then noised_sum p b terms else Word.sum b ~bits:p.agg_bits terms
  in
  Builder.finish b ~outputs:out

let aggregate_circuit p ~count =
  let b = Builder.create () in
  let states = Array.init count (fun _ -> Word.inputs b ~bits:p.state_bits) in
  let terms = Array.to_list (Array.map (fun s -> p.build_aggregand b ~state:s) states) in
  Builder.finish b ~outputs:(noised_sum p b terms)
