(** Reusable testbeds for the experiments and examples.

    {!single} reproduces the paper's Fig. 2: one switch under test with
    a client, an attacker and a server on data ports and the controller
    on the management port, running the plain reactive controller.

    {!scotch_net} is the Scotch evaluation network: two managed
    physical switches (ingress edge and server-side), hosts, a pool of
    overlay vswitches (full mesh, uplink and delivery tunnels) and the
    Scotch application, started.

    {!fabric} is the multi-rack leaf-spine data center of §4.1, with
    two Scotch vswitches per rack and rack-local host coverage. *)

open Scotch_switch
open Scotch_topo
open Scotch_workload
module C = Scotch_controller.Controller

(** One-way management-network latency (1 GbE path of Fig. 2). *)
val control_latency : float

(** {1 Fig. 2 testbed} *)

type single = {
  engine : Scotch_sim.Engine.t;
  switch : Switch.t;
  ctrl : C.t;
  sw_handle : C.sw;
  server : Host.t;
  client_src : Source.t;
  attacker_src : Source.t;
}

val server_port : int

(** Build the Fig. 2 testbed; sources are created but not started. *)
val single :
  ?seed:int -> profile:Profile.t -> client_rate:float -> attack_rate:float -> unit -> single

(** {1 Scotch evaluation network} *)

type scotch_net = {
  engine : Scotch_sim.Engine.t;
  topo : Topology.t;
  ctrl : C.t;
  app : Scotch_core.Scotch.t;
  overlay : Scotch_core.Overlay.t;
  policy : Scotch_core.Policy.t;
  edge : Switch.t;            (** dpid 1: clients + attacker attach here *)
  server_sw : Switch.t;       (** dpid 2: the servers' switch *)
  vswitches : Switch.t array; (** dpids 100.. *)
  clients : Host.t array;     (** ports 1..n on the edge switch *)
  attacker : Host.t;          (** port 99 on the edge switch *)
  servers : Host.t array;     (** ports 1..k on the server switch *)
  server : Host.t;            (** [servers.(0)] *)
  verify : Scotch_verify.Hooks.t option;
      (** invariant-checker hooks; [Some] only when the config's
          [verify] is [Continuous] and the Scotch app is running *)
  reliable : Scotch_reliable.Reliable.t option;
      (** the reliable control-channel layer (intent store,
          barrier-acked transactions, anti-entropy reconciler); [Some]
          only when built with [~reconcile:true] *)
}

val edge_dpid : int
val server_dpid : int
val attacker_edge_port : int
val vswitch_dpid : int -> int

(** Build the evaluation network.  [scotch_enabled = false] runs the
    plain reactive baseline instead of the Scotch app.
    [reconcile = true] routes all installs through a reliable
    control-channel layer owning every Scotch rule cookie. *)
val scotch_net :
  ?seed:int -> ?vswitch_profile:Profile.t ->
  ?config:Scotch_core.Config.t -> ?num_vswitches:int -> ?num_backups:int ->
  ?num_clients:int -> ?num_servers:int -> ?scotch_enabled:bool -> ?reconcile:bool -> unit ->
  scotch_net

(** A client traffic source on client [i] toward the first server. *)
val client_source :
  scotch_net -> i:int -> rate:float ->
  ?spec_of:(Scotch_util.Rng.t -> Flow_gen.flow_spec) -> unit -> Source.t

(** A spoofed-source flood from [host] (default the attacker) to [dst]
    (default the first server). *)
val attack_source :
  scotch_net -> ?host:Host.t -> ?dst:Host.t -> rate:float -> unit -> Source.t

(** The unstarted spoofed attacker, and the
    {!Scotch_faults.Injector} [flood] hook that starts it at a
    [Tenant_flood] fault's rate and stops it when the fault clears. *)
val flood_source :
  scotch_net -> Source.t * (tenant:int -> rate:float -> active:bool -> unit)

(** Run the simulation to absolute time [until]. *)
val run_until : scotch_net -> until:float -> unit

(** [served_rate net ~warmup ~until] runs to [warmup], then to [until],
    and returns the flows first seen at any server in between, per
    second. *)
val served_rate : scotch_net -> warmup:float -> until:float -> float

(** {1 Trace replay and its harvest} *)

type replay = {
  trace : Tracegen.flow_event list;
  launched : Flow_gen.launched option array;
      (** per trace event, filled as the run passes it *)
}

(** Generate the trace for [params] from [Rng.create (seed + 17)],
    build one client source per trace source and schedule the replay
    toward [net.servers]. *)
val replay_trace : scotch_net -> seed:int -> Tracegen.params -> replay

(** After the run: every launched flow of the replay, in trace order,
    as [(launch time, delivered to its server)]. *)
val harvest : scotch_net -> replay -> (float * bool) list

(** [success_bins ~bin_width ~until flows] is the delivery fraction of
    [flows] per [bin_width]-wide bin from 0, as [(bin start,
    fraction)] in bin order.  A launch at or after [until] falls in no
    bin; a bin with no launch yields no point. *)
val success_bins :
  bin_width:float -> until:float -> (float * bool) list -> (float * float) list

(** Exact p99 of the admitted-flow decision latency in seconds, from
    the obs trace's "scotch.decision" spans: routed outcomes only,
    and only [tenant]'s (by name) when given.  [None] without spans. *)
val decision_p99 : ?tenant:string -> unit -> float option

(** Insert a stateful firewall between the edge switch (S_U, port 70)
    and the server-side switch (S_D, in-port 70), register the policy
    segment with its overlay tunnels, install the green rules and set
    the classifier (§5.4). *)
val add_firewall_segment :
  scotch_net -> classify:(Scotch_packet.Flow_key.t -> bool) ->
  Middlebox.t * Scotch_core.Policy.segment

(** {1 Multi-rack leaf-spine fabric (§4.1)} *)

type fabric = {
  f_engine : Scotch_sim.Engine.t;
  f_topo : Topology.t;
  f_ctrl : C.t;
  f_app : Scotch_core.Scotch.t;
  f_overlay : Scotch_core.Overlay.t;
  f_tors : Switch.t array;
  f_spines : Switch.t array;
  f_hosts : Host.t array array; (** per rack *)
  f_vswitches : Switch.t array;
  f_verify : Scotch_verify.Hooks.t option; (** as {!scotch_net.verify} *)
}

val tor_dpid : int -> int

(** Build the fabric: [num_racks] ToRs and two spines (all
    Scotch-managed), [hosts_per_rack] hosts and two overlay vswitches
    per rack, with rack-local coverage. *)
val fabric :
  ?seed:int -> ?config:Scotch_core.Config.t -> ?num_racks:int ->
  ?hosts_per_rack:int -> ?scotch_enabled:bool -> unit -> fabric

(** A spoofed-source flood between two fabric hosts. *)
val fabric_attack : fabric -> src:Host.t -> dst:Host.t -> rate:float -> Source.t

(** A well-behaved client on the fabric. *)
val fabric_client : fabric -> src:Host.t -> dst:Host.t -> rate:float -> Source.t
