type t = {
  bandwidth_mbps : float;
  latency_ms : float;
}

let make ~bandwidth_mbps ~latency_ms =
  if not (bandwidth_mbps > 0.) then invalid_arg "Link.make: bandwidth must be positive";
  if latency_ms < 0. then invalid_arg "Link.make: negative latency";
  if not (Float.is_finite bandwidth_mbps && Float.is_finite latency_ms) then
    invalid_arg "Link.make: non-finite value";
  { bandwidth_mbps; latency_ms }

let gigabit = { bandwidth_mbps = 1000.; latency_ms = 5. }

let pp ppf t =
  Format.fprintf ppf "%a/%.1fms" Hmn_prelude.Units.pp_bandwidth t.bandwidth_mbps
    t.latency_ms
