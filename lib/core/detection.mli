(** Large-flow detection at the overlay vswitches (§5.3).

    [Config.Exact_polling] (the paper) polls every alive vswitch's flow
    stats each [stats_poll_interval]; the reply carries one record per
    vflow rule.  [Config.Sampled rate] gives each pool member a datapath
    packet sampler, keeps a Floware-style duty ledger of which uplinks
    each member samples, and polls only duty holders for constant-size
    top-k telemetry reports.  Either way each poll measures the rate of
    every overlay flow at its entry vswitch and reports it to the
    caller, which decides whether the flow is large and migrates it. *)

open Scotch_switch
module C = Scotch_controller.Controller

type t

(** Registers the channel-cost counters
    [scotch_core_stats_channel_{msgs,bytes}_total{mode}]. *)
val create : C.t -> Overlay.t -> Flow_info_db.t -> Config.t -> t

(** Under a sampled policy, give an overlay vswitch a datapath sampler;
    it stays disabled until a {!refresh_duty} gives it uplinks to
    sample.  No-op under exact polling. *)
val attach_sampler : t -> Switch.t -> unit

(** Recompute which uplinks each active pool member samples and push
    the duty into the samplers; call after every pool change.  No-op
    under exact polling. *)
val refresh_duty : t -> unit

(** [start t ~vswitch ~on_large] schedules the poll every
    [stats_poll_interval].  Each tick polls every alive vswitch (under
    sampling, only those on duty) through its controller handle
    [vswitch vdpid], and calls [on_large ~vdpid e] for every overlay
    flow [e] entering at [vdpid] whose measured packet rate (under
    sampling, the lower confidence bound of the estimate) exceeds
    {!Config.elephant_pkt_rate}.  A poll whose reply has not come back
    by the next tick expires (a dead or stalled vswitch strands no
    pending request). *)
val start :
  t -> vswitch:(int -> C.sw option) -> on_large:(vdpid:int -> Flow_info_db.entry -> unit) -> unit

(** Suspend or resume the poll (a controller-side monitoring outage);
    both detection styles stop. *)
val set_polling : t -> bool -> unit

(** Install the hook {!elephant} fires; the default is a no-op. *)
val set_on_elephant : t -> (Scotch_packet.Flow_key.t -> unit) -> unit

(** Fire the elephant hook with a flow the caller declared large. *)
val elephant : t -> Scotch_packet.Flow_key.t -> unit

(** Channel cost of exact polling so far, as [(message units, wire
    bytes)]: one unit per request, one per reply plus one per carried
    record, and each message's [Of_wire.size]. *)
val exact_channel : t -> int * int

(** Channel cost of telemetry polls, same units. *)
val sampled_channel : t -> int * int
