let check_leverage r =
  if r <= 0.0 || r > 1.0 then invalid_arg "Sensitivity: leverage out of (0,1]"

let eisenberg_noe ~leverage =
  check_leverage leverage;
  1.0 /. leverage

let elliott_golub_jackson ~leverage =
  check_leverage leverage;
  2.0 /. leverage

let units ~sensitivity ~scale_dollars ~granularity_dollars =
  if scale_dollars <= 0.0 || granularity_dollars <= 0.0 then
    invalid_arg "Sensitivity.units: nonpositive scale";
  int_of_float (ceil (sensitivity *. granularity_dollars /. scale_dollars))
