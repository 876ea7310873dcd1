type format = Shell | Json

let format_name = function Shell -> "shell" | Json -> "json"

let format_of_name = function
  | "shell" -> Ok Shell
  | "json" -> Ok Json
  | other -> Error (Printf.sprintf "unknown artifact format %S" other)

let schema_version = 1

type affixes = { prefix : string; suffix : string }

let host_bridge_affixes = { prefix = "br-h"; suffix = "" }
let switch_bridge_affixes = { prefix = "br-s"; suffix = "" }
let port_affixes = { prefix = "pe"; suffix = "" }
let iface_affixes = { prefix = "vif"; suffix = ".0" }

let name a i = a.prefix ^ string_of_int i ^ a.suffix
let host_bridge = name host_bridge_affixes
let switch_bridge = name switch_bridge_affixes
let port = name port_affixes
let iface = name iface_affixes

let minor_base = 16
let minor_of_rank rank = minor_base + rank

let manifest_file = "manifest.json"
let vms_file = function Shell -> "vms.sh" | Json -> "vms.json"
let net_file = function Shell -> "net.sh" | Json -> "net.json"
