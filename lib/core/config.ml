(* Scotch configuration knobs; every type, field and constant is
   documented in config.mli. *)

type detection =
  | Exact_polling
  | Sampled of float

type verify =
  | Off
  | Continuous

type tenancy = {
  tenants : Tenant.spec list;
  tenant_of : first_hop:int -> ingress_port:int -> Tenant.id;
}

(* The paper's values, which no experiment varies.  R = 80 keeps the
   switch under the 200 msg/s loss-free bound even through OFA
   housekeeping windows, since every served flow also costs a
   Packet-Out on the same channel. *)
let rule_rate = 80.0
let monitor_interval = 0.1
let min_active_duration = 5.0 (* guards against flapping *)
let drop_threshold = 500
let elephant_pkt_rate = 500.0
let telemetry_topk = 16
let vswitch_rule_idle = 30.0
let physical_rule_idle = 10.0
let pin_rule_idle = 30.0
let heartbeat_period = 1.0
let heartbeat_timeout = 3.0

type t = {
  activate_pin_rate : float;
  withdraw_flow_rate : float;
  overlay_threshold : int;
  ingress_differentiation : bool;
  stats_poll_interval : float;
  migration_enabled : bool;
  detection : detection;
  path_load_threshold : float;
  vswitches_per_switch : int;
  shed_policy : Scotch_util.Admission.policy;
  ingress_deadline : float;
  verify : verify;
  tenancy : tenancy option;
}

let default =
  { activate_pin_rate = 100.0;
    withdraw_flow_rate = 50.0;
    overlay_threshold = 20;
    ingress_differentiation = true;
    stats_poll_interval = 1.0;
    migration_enabled = true;
    detection = Exact_polling;
    path_load_threshold = 100.0;
    vswitches_per_switch = 4;
    shed_policy = Scotch_util.Admission.Drop_new;
    ingress_deadline = 0.0;
    verify = Off;
    tenancy = None }

(* §5.4's two rule colors, plus per-flow vswitch and table-miss rules *)
let cookie_green = 0x5C07C4EEL (* shared overlay rules *)

let cookie_red = 0x5C07C4EDL (* per-flow physical-path rules *)

let cookie_vflow = 0x5C07C4EFL (* per-flow rules at overlay vswitches *)

let cookie_miss = 0x5C07C4ECL (* table-miss rules installed at connect time *)
