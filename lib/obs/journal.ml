module Json = Hmn_prelude.Json

type resource = Mem | Stor
type screen = Agg_mem | Agg_stor | Disconnected
type net = Latency | Bandwidth
type cause = Screened of screen | Hosting of resource | Networking of net

let cause_label = function
  | Screened Agg_mem -> "screened-mem"
  | Screened Agg_stor -> "screened-stor"
  | Screened Disconnected -> "screened-disconnected"
  | Hosting Mem -> "hosting-mem"
  | Hosting Stor -> "hosting-stor"
  | Networking Latency -> "networking-latency"
  | Networking Bandwidth -> "networking-bandwidth"

type detail =
  | No_detail
  | Guest of int
  | Vlink of {
      vlink : int;
      src_host : int;
      dst_host : int;
      bandwidth_mbps : float;
      latency_ms : float;
    }

type decision =
  | Admit of { defrag_assisted : bool }
  | Reject of { cause : cause; binding : string; detail : detail }

type event =
  | Decision of {
      req_id : int;
      n_guests : int;
      n_vlinks : int;
      candidate_hosts : int;
      work : int;
      decision : decision;
    }
  | Departure of { tenant : int }
  | Defrag_move of { tenant : int }

type record = {
  seq : int;
  t_s : float;
  tenants : int;
  lbf : float;
  event : event;
}

type t = { mutable rev : record list; mutable n : int }

let create () = { rev = []; n = 0 }

let add t ~t_s ~tenants ~lbf event =
  t.rev <- { seq = t.n; t_s; tenants; lbf; event } :: t.rev;
  t.n <- t.n + 1

let length t = t.n
let records t = List.rev t.rev

let detail_fields = function
  | No_detail -> []
  | Guest g -> [ ("guest", Json.int g) ]
  | Vlink { vlink; src_host; dst_host; bandwidth_mbps; latency_ms } ->
      [
        ("vlink", Json.int vlink);
        ("src", Json.int src_host);
        ("dst", Json.int dst_host);
        ("bw_mbps", Json.float bandwidth_mbps);
        ("lat_ms", Json.float latency_ms);
      ]

let record_to_json r =
  let base tag fields =
    Json.Obj
      ([ ("seq", Json.int r.seq); ("t", Json.float r.t_s); ("event", Json.str tag) ]
      @ fields
      @ [ ("tenants", Json.int r.tenants); ("lbf", Json.float r.lbf) ])
  in
  match r.event with
  | Decision { req_id; n_guests; n_vlinks; candidate_hosts; work; decision } ->
      let tag, extra =
        match decision with
        | Admit { defrag_assisted = false } -> ("admit", [])
        | Admit { defrag_assisted = true } -> ("admit-defrag", [])
        | Reject { cause; binding; detail } ->
            ( "reject",
              [
                ("cause", Json.str (cause_label cause));
                ("binding", Json.str binding);
              ]
              @ detail_fields detail )
      in
      base tag
        ([
           ("id", Json.int req_id);
           ("guests", Json.int n_guests);
           ("vlinks", Json.int n_vlinks);
           ("candidates", Json.int candidate_hosts);
           ("work", Json.int work);
         ]
        @ extra)
  | Departure { tenant } -> base "depart" [ ("id", Json.int tenant) ]
  | Defrag_move { tenant } -> base "defrag-move" [ ("id", Json.int tenant) ]

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string buf (Json.to_string (record_to_json r));
      Buffer.add_char buf '\n')
    (records t);
  Buffer.contents buf
