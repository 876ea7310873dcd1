type t = {
  mips : float;
  mem_mb : float;
  stor_gb : float;
}

let make ~mips ~mem_mb ~stor_gb =
  let check name x =
    if not (Float.is_finite x) || x < 0. then
      invalid_arg ("Resources.make: bad " ^ name)
  in
  check "mips" mips;
  check "mem_mb" mem_mb;
  check "stor_gb" stor_gb;
  { mips; mem_mb; stor_gb }

let zero = { mips = 0.; mem_mb = 0.; stor_gb = 0. }

let add a b =
  { mips = a.mips +. b.mips; mem_mb = a.mem_mb +. b.mem_mb; stor_gb = a.stor_gb +. b.stor_gb }

let sub a b =
  { mips = a.mips -. b.mips; mem_mb = a.mem_mb -. b.mem_mb; stor_gb = a.stor_gb -. b.stor_gb }

let scale k a = { mips = k *. a.mips; mem_mb = k *. a.mem_mb; stor_gb = k *. a.stor_gb }

let sum xs = List.fold_left add zero xs

let fits_mem_stor ~demand ~avail =
  demand.mem_mb <= avail.mem_mb && demand.stor_gb <= avail.stor_gb

let equal ?eps a b =
  Hmn_prelude.Float_ext.approx ?eps a.mips b.mips
  && Hmn_prelude.Float_ext.approx ?eps a.mem_mb b.mem_mb
  && Hmn_prelude.Float_ext.approx ?eps a.stor_gb b.stor_gb

let pp ppf t =
  Format.fprintf ppf "{cpu=%.1fMIPS; mem=%a; stor=%a}" t.mips
    Hmn_prelude.Units.pp_memory t.mem_mb Hmn_prelude.Units.pp_storage t.stor_gb

let to_string t = Format.asprintf "%a" pp t
