type format = Shell | Json

let format_name = function Shell -> "shell" | Json -> "json"

let format_of_name = function
  | "shell" -> Ok Shell
  | "json" -> Ok Json
  | other -> Error (Printf.sprintf "unknown artifact format %S" other)

let schema_version = 1

let host_bridge i = "br-h" ^ string_of_int i
let switch_bridge i = "br-s" ^ string_of_int i
let port eid = "pe" ^ string_of_int eid
let iface guest = "vif" ^ string_of_int guest ^ ".0"

let minor_base = 16
let minor_of_rank rank = minor_base + rank

let manifest_file = "manifest.json"
let vms_file = function Shell -> "vms.sh" | Json -> "vms.json"
let net_file = function Shell -> "net.sh" | Json -> "net.json"
