module Venv = Hmn_vnet.Virtual_env
module Path = Hmn_routing.Path

type t = {
  id : int;
  venv : Venv.t;
  hosts : int array;
  paths : Path.t array;
  arrived_at : float;
  holding_s : float;
}

let of_mapping ~id ~arrived_at ~holding_s (m : Hmn_mapping.Mapping.t) =
  if id < 0 then invalid_arg "Tenant.of_mapping: negative id";
  if not (Float.is_finite holding_s) || holding_s < 0. then
    invalid_arg "Tenant.of_mapping: holding time must be finite and >= 0";
  let venv = (Hmn_mapping.Mapping.problem m).venv in
  let hosts =
    Array.init (Venv.n_guests venv) (fun g ->
        Hmn_mapping.Placement.host_of_exn m.placement ~guest:g)
  in
  let paths =
    Array.init (Venv.n_vlinks venv) (fun v ->
        match Hmn_mapping.Link_map.path_of m.link_map ~vlink:v with
        | Some p -> p
        | None ->
            (* a complete mapping routes every link; tolerate a missing
               intra-host entry by synthesising its trivial path *)
            let g, _ = Venv.endpoints venv v in
            Path.trivial hosts.(g))
  in
  { id; venv; hosts; paths; arrived_at; holding_s }

let n_guests t = Venv.n_guests t.venv
let n_vlinks t = Venv.n_vlinks t.venv

let view t : Hmn_validate.Validator.tenant_view =
  {
    venv = t.venv;
    t_host_of =
      (fun g ->
        if g >= 0 && g < Array.length t.hosts then Some t.hosts.(g) else None);
    t_path_of =
      (fun v ->
        if v >= 0 && v < Array.length t.paths then Some t.paths.(v) else None);
  }
