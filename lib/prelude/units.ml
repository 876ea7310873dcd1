let mbps_of_kbps k = k /. 1000.
let mb_of_gb g = g *. 1024.
let gb_of_tb t = t *. 1024.
let seconds_of_ms ms = ms /. 1000.

let pp_bandwidth ppf mbps =
  if mbps >= 1000. then Format.fprintf ppf "%.2fGbps" (mbps /. 1000.)
  else if mbps < 1. then Format.fprintf ppf "%.0fkbps" (mbps *. 1000.)
  else Format.fprintf ppf "%.2fMbps" mbps

let pp_memory ppf mb =
  if mb >= 1024. then Format.fprintf ppf "%.2fGB" (mb /. 1024.)
  else Format.fprintf ppf "%.0fMB" mb

let pp_storage ppf gb =
  if gb >= 1024. then Format.fprintf ppf "%.2fTB" (gb /. 1024.)
  else Format.fprintf ppf "%.0fGB" gb
