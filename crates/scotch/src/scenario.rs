//! Canned scenarios mirroring the paper's testbeds.
//!
//! * [`Scenario::single_switch`] — Fig. 2: attacker, client, and server on
//!   the data ports of one switch under test, controller on the management
//!   port. Used by the Fig. 3/4/9/10 experiments.
//! * [`Scenario::overlay_datacenter`] — §6's Scotch testbed: one Pica8
//!   switch, a pool of mesh vSwitches, servers behind host vSwitches, all
//!   tunnelled together; optionally a middlebox with policy routing.

use crate::app::{ControllerMode, PolicyChain, ScotchApp};
use crate::config::{ScotchConfig, TelemetryConfig};
use crate::overlay::OverlayManager;
use crate::report::Report;
use crate::sim::Simulation;
use scotch_controller::AddressBook;
use scotch_net::{FlowKey, IpAddr, LinkSpec, NodeId, NodeKind, Topology};
use scotch_sim::fault::FaultPlan;
use scotch_sim::journey::{JourneyConfig, JourneyRecorder};
use scotch_sim::trace::{TraceConfig, TraceRecorder};
use scotch_sim::{SimDuration, SimRng, SimTime};
use scotch_switch::middlebox::{Middlebox, StatefulFirewall};
use scotch_switch::{PhysicalSwitch, SwitchProfile, VSwitch};
use scotch_workload::clients::{ClientWorkload, FlowSize};
use scotch_workload::ddos::DdosAttacker;
use scotch_workload::flash::{FlashCrowd, RateProfile};
use scotch_workload::trace::TraceWorkload;
use scotch_workload::{FlowArrival, FlowIdAllocator, FlowSource, FlowSpec};
use std::collections::VecDeque;

/// A source that replays a pre-computed list of arrivals (elephant
/// injection and tests).
pub struct ScriptedSource {
    arrivals: VecDeque<FlowArrival>,
}

impl ScriptedSource {
    /// Wrap a list of arrivals (must be time-sorted).
    pub fn new(arrivals: Vec<FlowArrival>) -> Self {
        ScriptedSource {
            arrivals: arrivals.into(),
        }
    }
}

impl FlowSource for ScriptedSource {
    fn next_arrival(&mut self) -> Option<FlowArrival> {
        self.arrivals.pop_front()
    }
}

#[derive(Debug, Clone, Copy)]
struct AttackSpec {
    rate: f64,
    start: SimTime,
    end: SimTime,
}

#[derive(Debug, Clone)]
struct ClientSpec {
    rate: f64,
    size: FlowSize,
    packet_interval: SimDuration,
    packet_size: u32,
}

#[derive(Debug, Clone, Copy)]
struct ElephantSpec {
    count: usize,
    pps: f64,
    packets: u32,
    start: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TopoKind {
    SingleSwitch,
    Datacenter,
    /// Leaf-spine: one spine + per-rack ToR switches, hosts and mesh
    /// vSwitches distributed across racks.
    MultiRack {
        racks: usize,
        mesh_per_rack: usize,
    },
}

/// Scenario builder.
pub struct Scenario {
    kind: TopoKind,
    profile: SwitchProfile,
    mode: ControllerMode,
    config: ScotchConfig,
    n_mesh: usize,
    n_backups: usize,
    n_servers: usize,
    attack: Option<AttackSpec>,
    clients: Option<ClientSpec>,
    flash: Option<RateProfile>,
    trace_rate: Option<f64>,
    elephants: Option<ElephantSpec>,
    middlebox: bool,
    fail_vswitch: Option<(usize, SimTime)>,
    join_vswitch: Option<(usize, SimTime)>,
    link_loss: f64,
    horizon: SimTime,
    tracing: Option<TraceConfig>,
    journeys: Option<JourneyConfig>,
    chaos_plan: Option<FaultPlan>,
    interrack_propagation: Option<SimDuration>,
    rack_clients: Option<f64>,
}

impl Scenario {
    /// The Fig. 2 testbed: one switch under test, baseline controller.
    pub fn single_switch(profile: SwitchProfile) -> Self {
        Scenario {
            kind: TopoKind::SingleSwitch,
            profile,
            mode: ControllerMode::Baseline,
            config: ScotchConfig::default(),
            n_mesh: 0,
            n_backups: 0,
            n_servers: 1,
            attack: None,
            clients: None,
            flash: None,
            trace_rate: None,
            elephants: None,
            middlebox: false,
            fail_vswitch: None,
            join_vswitch: None,
            link_loss: 0.0,
            horizon: SimTime::from_secs(3600),
            tracing: None,
            journeys: None,
            chaos_plan: None,
            interrack_propagation: None,
            rack_clients: None,
        }
    }

    /// §6's Scotch testbed: one Pica8 switch + `n_mesh` mesh vSwitches +
    /// servers behind host vSwitches, Scotch controller.
    pub fn overlay_datacenter(n_mesh: usize) -> Self {
        Scenario {
            kind: TopoKind::Datacenter,
            profile: SwitchProfile::pica8_pronto_3780(),
            mode: ControllerMode::Scotch,
            config: ScotchConfig::default(),
            n_mesh,
            n_backups: 0,
            n_servers: 2,
            attack: None,
            clients: None,
            flash: None,
            trace_rate: None,
            elephants: None,
            middlebox: false,
            fail_vswitch: None,
            join_vswitch: None,
            link_loss: 0.0,
            horizon: SimTime::from_secs(3600),
            tracing: None,
            journeys: None,
            chaos_plan: None,
            interrack_propagation: None,
            rack_clients: None,
        }
    }

    /// A leaf-spine network (Fig. 5's "distributed across different
    /// racks"): one Pica8 spine, `racks` Pica8 ToR switches, one server
    /// per rack behind a host vSwitch, `mesh_per_rack` mesh vSwitches per
    /// rack, attacker + client in rack 0, victim server in the last rack —
    /// so attack traffic crosses three physical switches.
    pub fn multirack(racks: usize, mesh_per_rack: usize) -> Self {
        assert!(racks >= 2, "need at least two racks for cross-rack paths");
        let mut s = Scenario::overlay_datacenter(0);
        s.kind = TopoKind::MultiRack {
            racks,
            mesh_per_rack,
        };
        s.n_servers = racks;
        s
    }

    /// Builder: spoofed-source attack at `rate` flows/s for the whole run.
    pub fn with_attack(mut self, rate: f64) -> Self {
        self.attack = Some(AttackSpec {
            rate,
            start: SimTime::ZERO,
            end: self.horizon,
        });
        self
    }

    /// Builder: attack only within `[start, end)` (withdrawal experiments).
    pub fn with_attack_window(mut self, rate: f64, start: SimTime, end: SimTime) -> Self {
        self.attack = Some(AttackSpec { rate, start, end });
        self
    }

    /// Builder: legitimate clients at `rate` single-packet flows/s (the
    /// paper's probe traffic).
    pub fn with_clients(mut self, rate: f64) -> Self {
        self.clients = Some(ClientSpec {
            rate,
            size: FlowSize::Fixed(1),
            packet_interval: SimDuration::from_millis(1),
            packet_size: 64,
        });
        self
    }

    /// Builder: clients with heavy-tailed multi-packet flows.
    pub fn with_client_flows(
        mut self,
        rate: f64,
        size: FlowSize,
        packet_interval: SimDuration,
    ) -> Self {
        self.clients = Some(ClientSpec {
            rate,
            size,
            packet_interval,
            packet_size: 1000,
        });
        self
    }

    /// Builder: a flash-crowd rate profile toward server 0.
    pub fn with_flash_crowd(mut self, profile: RateProfile) -> Self {
        self.flash = Some(profile);
        self
    }

    /// Builder: a Poisson/Pareto trace over all hosts at `rate` flows/s.
    pub fn with_trace(mut self, rate: f64) -> Self {
        self.trace_rate = Some(rate);
        self
    }

    /// Builder: inject `count` elephant flows of `packets` packets at
    /// `pps` each, starting at `start` (client → server 0, tracked in the
    /// report).
    pub fn with_elephants(mut self, count: usize, pps: f64, packets: u32, start: SimTime) -> Self {
        self.elephants = Some(ElephantSpec {
            count,
            pps,
            packets,
            start,
        });
        self
    }

    /// Builder: attach a stateful firewall to the switch and bind it to
    /// server 0's address (§5.4 policy routing).
    pub fn with_middlebox(mut self) -> Self {
        self.middlebox = true;
        self
    }

    /// Builder: override the Scotch configuration.
    pub fn with_config(mut self, config: ScotchConfig) -> Self {
        self.config = config;
        self
    }

    /// Builder: sampled flow telemetry at per-packet probability `rate`
    /// (DESIGN.md §13). Every vSwitch gets a deterministic sampler stream
    /// forked from the scenario seed, and the monitor scales counts by
    /// `1/rate`. `rate: 1.0` reproduces exhaustive-mode reports
    /// byte-for-byte.
    pub fn with_sampling_rate(mut self, rate: f64) -> Self {
        self.config.telemetry = TelemetryConfig::Sampled { rate };
        self
    }

    /// Builder: override the controller mode.
    pub fn with_mode(mut self, mode: ControllerMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builder: override the switch profile (Fig. 3's device sweep).
    pub fn with_profile(mut self, profile: SwitchProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Builder: number of servers (each behind its own host vSwitch).
    pub fn with_servers(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.n_servers = n;
        self
    }

    /// Builder: standby vSwitches for fail-over (§5.6).
    pub fn with_backups(mut self, n: usize) -> Self {
        self.n_backups = n;
        self
    }

    /// Builder: kill mesh vSwitch `idx` at `at`.
    pub fn with_vswitch_failure(mut self, idx: usize, at: SimTime) -> Self {
        self.fail_vswitch = Some((idx, at));
        self
    }

    /// Builder: elastically join backup vSwitch `idx` to the mesh at `at`
    /// (§5.6 scale-out). Requires `with_backups(idx + 1)` or more.
    pub fn with_vswitch_join(mut self, idx: usize, at: SimTime) -> Self {
        self.join_vswitch = Some((idx, at));
        self
    }

    /// Builder: inject random per-packet loss `p` on every link
    /// (smoltcp-style fault injection; robustness testing).
    pub fn with_link_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.link_loss = p;
        self
    }

    /// Builder: enable the flight-recorder trace with `config` (levels +
    /// ring capacity). Timestamps are sim-time, so the trace is
    /// bit-reproducible per `(scenario, seed)`. Distinct from
    /// [`Scenario::with_trace`], which attaches a trace-replay *workload*.
    pub fn with_tracing(mut self, config: TraceConfig) -> Self {
        self.tracing = Some(config);
        self
    }

    /// Builder: enable causal journey tracing with an explicit
    /// [`JourneyConfig`] (sampling rate, always-trace flow set, mark
    /// capacity). Journey marks are canonical output: selection is a pure
    /// hash of `(flow_id, seed)`, so the mark stream is bit-identical per
    /// `(scenario, seed)`.
    pub fn with_journeys(mut self, config: JourneyConfig) -> Self {
        self.journeys = Some(config);
        self
    }

    /// Builder: enable causal journey tracing at sampling `rate` in
    /// `(0, 1]` with default capacity and no always-trace set.
    pub fn with_journey_rate(mut self, rate: f64) -> Self {
        self.journeys = Some(JourneyConfig {
            rate,
            ..JourneyConfig::default()
        });
        self
    }

    /// Builder (multi-rack only): set the ToR–spine propagation delay,
    /// modelling racks in different rooms or buildings. A cross-rack path
    /// crosses two ToR–spine links, so it pays the delay twice.
    pub fn with_interrack_propagation(mut self, p: SimDuration) -> Self {
        self.interrack_propagation = Some(p);
        self
    }

    /// Builder (multi-rack only): attach one client host per rack, each
    /// sending single-packet probe flows at `rate` flows/s to its own
    /// rack's server. This gives every rack locally-sourced traffic instead
    /// of funnelling all flows through the clients hanging off rack 0.
    pub fn with_rack_clients(mut self, rate: f64) -> Self {
        self.rack_clients = Some(rate);
        self
    }

    /// Builder: attach a declarative fault plan (chaos harness). The plan's
    /// probabilistic faults draw from a dedicated RNG stream forked from the
    /// scenario seed, so `(scenario, seed, plan)` replays bit-identically.
    /// Implies flight-recorder tracing (at the default config if none was
    /// set) — the invariant checker needs the trace to window violations.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.chaos_plan = Some(plan);
        self
    }

    /// Builder: run a controller cluster of `n` replicas behind per-switch
    /// mastership (DESIGN.md §16). `n = 1` is the single-controller engine,
    /// byte-for-byte. Mutates the current config, so it composes after
    /// [`Scenario::with_config`].
    pub fn with_controllers(mut self, n: u32) -> Self {
        assert!(n >= 1, "need at least one controller");
        self.config.controllers = n;
        self
    }

    /// Builder: override the inter-replica state-sync latency — the bound
    /// on every mastership handoff (invariant I6). Composes after
    /// [`Scenario::with_config`].
    pub fn with_sync_latency(mut self, d: SimDuration) -> Self {
        assert!(d > SimDuration::ZERO, "sync latency must be positive");
        self.config.sync_latency = d;
        self
    }

    /// Builder: scripted failover — crash replica `replica` at `at`, with
    /// no restart. Appends to the scenario's fault plan (creating one if
    /// absent), so it rides the same deterministic injection machinery as
    /// chaos plans and composes with [`Scenario::with_fault_plan`].
    pub fn with_failover_at(mut self, replica: u32, at: SimTime) -> Self {
        let plan = self.chaos_plan.get_or_insert_with(FaultPlan::default);
        plan.events.push(scotch_sim::fault::FaultEvent {
            at,
            kind: scotch_sim::fault::FaultKind::ReplicaCrash {
                target: replica,
                restart_after: None,
            },
        });
        self
    }

    /// How long a flowdb entry lives: the rule idle timeout (entries live
    /// until their rules idle out), clamped by the run horizon when known
    /// so short smoke runs don't reserve a table several times larger than
    /// they can ever fill (an oversized map costs cache misses on every
    /// lookup).
    fn flow_lifetime_secs(&self, horizon_secs: f64) -> f64 {
        self.config
            .rule_idle_timeout
            .as_secs_f64()
            .min(horizon_secs)
    }

    /// Expected concurrent flowdb population: total arrival rate times the
    /// entry lifetime. Used to pre-size the controller's flow state
    /// (capped — the hint is an optimization, not a commitment).
    fn expected_flow_count(&self, lifetime_secs: f64) -> usize {
        let mut rate = 0.0;
        if let Some(a) = &self.attack {
            rate += a.rate;
        }
        if let Some(c) = &self.clients {
            rate += c.rate;
        }
        if let Some(r) = self.trace_rate {
            rate += r;
        }
        let expected = rate * lifetime_secs;
        let elephants = self.elephants.map(|e| e.count).unwrap_or(0);
        ((expected as usize) + elephants).min(1 << 22)
    }

    /// Client address.
    pub fn client_ip() -> IpAddr {
        IpAddr::new(10, 0, 0, 1)
    }

    /// Attacker address (its own; attack sources are spoofed).
    pub fn attacker_ip() -> IpAddr {
        IpAddr::new(10, 0, 0, 3)
    }

    /// Address of server `i`.
    pub fn server_ip(i: usize) -> IpAddr {
        IpAddr::new(10, 0, 1, i as u8)
    }

    /// Address of rack `r`'s local client (multi-rack topologies with
    /// [`Scenario::with_rack_clients`]).
    pub fn rack_client_ip(r: usize) -> IpAddr {
        IpAddr::new(10, 0, 2, r as u8)
    }

    /// Build the simulation. Deterministic in `(self, seed)`.
    pub fn build(self, seed: u64) -> Simulation {
        self.build_for(seed, f64::INFINITY)
    }

    /// Build the simulation for a run that will stop at `until`: identical
    /// to [`Scenario::build`] except the flowdb capacity hint is clamped by
    /// the horizon (a 2 s smoke run should not reserve 10 s worth of
    /// flows).
    pub fn build_until(self, seed: u64, until: SimTime) -> Simulation {
        let horizon = until.as_nanos() as f64 / 1e9;
        self.build_for(seed, horizon)
    }

    fn build_for(self, seed: u64, horizon_secs: f64) -> Simulation {
        let tracing = self.tracing.clone();
        let journeys = self.journeys.clone();
        let chaos_plan = self.chaos_plan.clone();
        let lifetime = self.flow_lifetime_secs(horizon_secs);
        let mut flow_hint = self.expected_flow_count(lifetime);
        let overlay = self.mode == ControllerMode::Scotch;
        let mut sim = match self.kind {
            TopoKind::SingleSwitch => self.build_single_switch(seed),
            TopoKind::Datacenter => self.build_datacenter(seed),
            TopoKind::MultiRack {
                racks,
                mesh_per_rack,
            } => self.build_multirack(racks, mesh_per_rack, seed),
        };
        match tracing {
            Some(config) => sim.app.trace = TraceRecorder::new(config),
            // Chaos runs always trace: the invariant checker reports each
            // violation with the trace window around it.
            None if chaos_plan.is_some() => {
                sim.app.trace = TraceRecorder::new(TraceConfig::default());
            }
            None => {}
        }
        if let Some(config) = journeys {
            sim.app.journeys = JourneyRecorder::new(&config, seed);
        }
        if let Some(plan) = chaos_plan {
            let mut rng = SimRng::new(seed);
            sim.apply_fault_plan(&plan, rng.fork(0xC4A05));
        }
        if !overlay {
            // Without the overlay a flow reaches the flowdb only through a
            // Packet-In its switch agent admitted, so the agents' admission
            // rate bounds the population however fast flows are offered.
            flow_hint = flow_hint.min(sim.packet_in_admission_bound(lifetime));
        }
        sim.flow_capacity_hint = flow_hint;
        sim
    }

    /// Build and run until `until` (via [`Scenario::build_until`], so the
    /// flowdb capacity hint is horizon-clamped).
    pub fn run(self, until: SimTime, seed: u64) -> Report {
        self.build_until(seed, until).run(until)
    }

    /// Enable the telemetry sampler on a freshly built vSwitch when the
    /// config asks for sampled telemetry. The sampler stream is derived
    /// from `(scenario seed, node id)` with the same golden-ratio mixing
    /// the chaos engine uses: every vSwitch's pick sequence is independent
    /// of construction order and of every other vSwitch's traffic.
    fn telemetered(&self, mut v: VSwitch, seed: u64) -> VSwitch {
        if let Some(rate) = self.config.telemetry.sampling_rate() {
            const SAMPLER_STREAM: u64 = 0x7E1E_4E7F_1035;
            let stream =
                (seed ^ SAMPLER_STREAM) ^ (v.node.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            v.enable_sampling(rate, SimRng::new(stream));
        }
        v
    }

    fn data_link(&self) -> LinkSpec {
        let base = if self.profile.dataplane_pps.is_none() && self.profile.name.contains("Pica8") {
            LinkSpec::tengig()
        } else {
            LinkSpec::gig()
        };
        base.with_loss(self.link_loss)
    }

    fn edge_link(&self) -> LinkSpec {
        LinkSpec::gig().with_loss(self.link_loss)
    }

    fn build_single_switch(self, seed: u64) -> Simulation {
        let mut rng = SimRng::new(seed);
        let mut topo = Topology::new();
        let dut_is_vswitch = self.profile.dataplane_pps.is_some();
        let dut = topo.add_node(
            if dut_is_vswitch {
                NodeKind::VSwitch
            } else {
                NodeKind::PhysicalSwitch
            },
            "dut",
        );
        let attacker = topo.add_node(NodeKind::Host, "attacker");
        let client = topo.add_node(NodeKind::Host, "client");
        let server = topo.add_node(NodeKind::Host, "server");
        let link = self.data_link();
        topo.add_duplex_link(attacker, dut, link);
        topo.add_duplex_link(client, dut, link);
        topo.add_duplex_link(server, dut, link);

        let mut book = AddressBook::new();
        book.register(&topo, Self::client_ip(), client, dut);
        book.register(&topo, Self::server_ip(0), server, dut);
        book.register(&topo, Self::attacker_ip(), attacker, dut);

        let mut app = ScotchApp::new(
            self.mode,
            self.config.clone(),
            book,
            OverlayManager::default(),
        );
        if self.mode == ControllerMode::Scotch {
            app.register_switch(dut, self.profile.safe_rule_budget());
        }

        if self.link_loss > 0.0 {
            topo.enable_fault_injection(rng.fork(0xFA));
        }
        let mut sim = Simulation::new(topo, app);
        if dut_is_vswitch {
            sim.add_vswitch(self.telemetered(
                VSwitch::with_profile(dut, self.profile.clone(), rng.fork(1)),
                seed,
            ));
        } else {
            sim.add_physical(PhysicalSwitch::new(dut, self.profile.clone(), rng.fork(1)));
        }
        sim.add_host(client, Self::client_ip());
        sim.add_host(server, Self::server_ip(0));
        sim.add_host(attacker, Self::attacker_ip());

        self.attach_workloads(&mut sim, attacker, client, &mut rng);
        sim
    }

    fn build_datacenter(self, seed: u64) -> Simulation {
        let mut rng = SimRng::new(seed);
        let mut topo = Topology::new();
        let ps = topo.add_node(NodeKind::PhysicalSwitch, "pica8");
        let attacker = topo.add_node(NodeKind::Host, "attacker");
        let client = topo.add_node(NodeKind::Host, "client");
        let data = self.data_link();
        topo.add_duplex_link(attacker, ps, data);
        topo.add_duplex_link(client, ps, data);

        let mut servers = Vec::new();
        let mut host_vswitches = Vec::new();
        for i in 0..self.n_servers {
            let w = topo.add_node(NodeKind::VSwitch, format!("hostvsw{i}"));
            topo.add_duplex_link(ps, w, self.edge_link());
            let srv = topo.add_node(NodeKind::Host, format!("server{i}"));
            topo.add_duplex_link(w, srv, self.edge_link());
            servers.push(srv);
            host_vswitches.push(w);
        }
        let mesh: Vec<NodeId> = (0..self.n_mesh)
            .map(|i| {
                let v = topo.add_node(NodeKind::VSwitch, format!("mesh{i}"));
                topo.add_duplex_link(ps, v, self.edge_link());
                v
            })
            .collect();
        let backups: Vec<NodeId> = (0..self.n_backups)
            .map(|i| {
                let v = topo.add_node(NodeKind::VSwitch, format!("backup{i}"));
                topo.add_duplex_link(ps, v, self.edge_link());
                v
            })
            .collect();
        let mb = if self.middlebox {
            let mb = topo.add_node(NodeKind::Middlebox, "firewall");
            topo.add_duplex_link(ps, mb, self.edge_link()); // mb in
            topo.add_duplex_link(ps, mb, self.edge_link()); // mb out
            Some(mb)
        } else {
            None
        };

        let mut book = AddressBook::new();
        book.register(&topo, Self::client_ip(), client, ps);
        book.register(&topo, Self::attacker_ip(), attacker, ps);
        for (i, srv) in servers.iter().enumerate() {
            book.register(&topo, Self::server_ip(i), *srv, host_vswitches[i]);
        }

        let pairs: Vec<(NodeId, NodeId)> = servers
            .iter()
            .copied()
            .zip(host_vswitches.iter().copied())
            .collect();
        let mut overlay = OverlayManager::build(&topo, &[ps], &mesh, &pairs);
        overlay.backups = backups.clone();
        let policy_chain = mb.filter(|_| self.n_mesh >= 1).map(|mb| PolicyChain {
            middlebox: mb,
            upstream: ps,
            downstream: ps,
            agg_in: mesh[0],
            agg_out: mesh[1 % mesh.len()],
        });
        if let Some(chain) = &policy_chain {
            overlay.add_policy_tunnels(&topo, chain.agg_in, ps, ps, chain.agg_out);
        }

        let mut app = ScotchApp::new(self.mode, self.config.clone(), book, overlay);
        app.register_switch(ps, self.profile.safe_rule_budget());
        let policy_cmds = match &policy_chain {
            Some(chain) => app.register_policy(&topo, Self::server_ip(0), *chain),
            None => Vec::new(),
        };

        if self.link_loss > 0.0 {
            topo.enable_fault_injection(rng.fork(0xFA));
        }
        let mut sim = Simulation::new(topo, app);
        sim.add_physical(PhysicalSwitch::new(ps, self.profile.clone(), rng.fork(1)));
        for (i, w) in host_vswitches.iter().enumerate() {
            sim.add_vswitch(self.telemetered(VSwitch::new(*w, rng.fork(100 + i as u64)), seed));
        }
        for (i, v) in mesh.iter().enumerate() {
            sim.add_vswitch(self.telemetered(VSwitch::new(*v, rng.fork(200 + i as u64)), seed));
        }
        for (i, b) in backups.iter().enumerate() {
            sim.add_vswitch(self.telemetered(VSwitch::new(*b, rng.fork(300 + i as u64)), seed));
        }
        if let Some(mb) = mb {
            sim.add_middlebox(mb, Middlebox::Firewall(StatefulFirewall::new()));
        }
        sim.add_host(client, Self::client_ip());
        sim.add_host(attacker, Self::attacker_ip());
        for (i, srv) in servers.iter().enumerate() {
            sim.add_host(*srv, Self::server_ip(i));
        }
        sim.bootstrap_commands(policy_cmds);

        if let Some((idx, at)) = self.fail_vswitch {
            if idx < mesh.len() {
                sim.fail_vswitch_at(mesh[idx], at);
            }
        }
        if let Some((idx, at)) = self.join_vswitch {
            assert!(
                idx < backups.len(),
                "with_vswitch_join requires enough backups"
            );
            sim.join_vswitch_at(backups[idx], at);
        }

        self.attach_workloads(&mut sim, attacker, client, &mut rng);
        sim
    }

    /// The address attacks and clients aim at: the last rack's server in
    /// multi-rack topologies (cross-fabric paths), server 0 otherwise.
    fn victim_ip(&self) -> IpAddr {
        match self.kind {
            TopoKind::MultiRack { racks, .. } => Self::server_ip(racks - 1),
            _ => Self::server_ip(0),
        }
    }

    fn build_multirack(self, racks: usize, mesh_per_rack: usize, seed: u64) -> Simulation {
        let mut rng = SimRng::new(seed);
        let mut topo = Topology::new();
        let spine = topo.add_node(NodeKind::PhysicalSwitch, "spine");
        let mut tors = Vec::new();
        let mut servers = Vec::new();
        let mut host_vswitches = Vec::new();
        let mut mesh: Vec<NodeId> = Vec::new();
        let mut rack_mesh: Vec<Vec<NodeId>> = Vec::new();
        let uplink = {
            let mut l = LinkSpec::tengig();
            if let Some(p) = self.interrack_propagation {
                l.propagation = p;
            }
            l
        };
        for r in 0..racks {
            let tor = topo.add_node(NodeKind::PhysicalSwitch, format!("tor{r}"));
            topo.add_duplex_link(tor, spine, uplink);
            tors.push(tor);
            let w = topo.add_node(NodeKind::VSwitch, format!("hostvsw{r}"));
            topo.add_duplex_link(tor, w, self.edge_link());
            let srv = topo.add_node(NodeKind::Host, format!("server{r}"));
            topo.add_duplex_link(w, srv, self.edge_link());
            servers.push(srv);
            host_vswitches.push(w);
            let mut local = Vec::new();
            for m in 0..mesh_per_rack {
                let v = topo.add_node(NodeKind::VSwitch, format!("mesh{r}_{m}"));
                topo.add_duplex_link(tor, v, self.edge_link());
                mesh.push(v);
                local.push(v);
            }
            rack_mesh.push(local);
        }
        let attacker = topo.add_node(NodeKind::Host, "attacker");
        let client = topo.add_node(NodeKind::Host, "client");
        topo.add_duplex_link(attacker, tors[0], LinkSpec::tengig());
        topo.add_duplex_link(client, tors[0], LinkSpec::tengig());
        let mut rack_client_hosts = Vec::new();
        if self.rack_clients.is_some() {
            for (r, tor) in tors.iter().enumerate() {
                let h = topo.add_node(NodeKind::Host, format!("rackclient{r}"));
                topo.add_duplex_link(h, *tor, LinkSpec::tengig());
                rack_client_hosts.push(h);
            }
        }

        let mut book = AddressBook::new();
        book.register(&topo, Self::client_ip(), client, tors[0]);
        book.register(&topo, Self::attacker_ip(), attacker, tors[0]);
        for (r, srv) in servers.iter().enumerate() {
            book.register(&topo, Self::server_ip(r), *srv, host_vswitches[r]);
        }
        for (r, h) in rack_client_hosts.iter().enumerate() {
            book.register(&topo, Self::rack_client_ip(r), *h, tors[r]);
        }

        let mut physical = vec![spine];
        physical.extend(&tors);
        let pairs: Vec<(NodeId, NodeId)> = servers
            .iter()
            .copied()
            .zip(host_vswitches.iter().copied())
            .collect();
        let mut overlay = OverlayManager::build(&topo, &physical, &mesh, &pairs);
        // Location-aware host partition (§4.1): each server's local mesh
        // vSwitch lives in its own rack.
        if mesh_per_rack > 0 {
            for (r, srv) in servers.iter().enumerate() {
                overlay.local_mesh.insert(*srv, rack_mesh[r][0]);
            }
        }

        let mut app = ScotchApp::new(self.mode, self.config.clone(), book, overlay);
        for &ps in &physical {
            app.register_switch(ps, self.profile.safe_rule_budget());
        }

        if self.link_loss > 0.0 {
            topo.enable_fault_injection(rng.fork(0xFA));
        }
        let mut sim = Simulation::new(topo, app);
        sim.add_physical(PhysicalSwitch::new(
            spine,
            self.profile.clone(),
            rng.fork(1),
        ));
        for (i, tor) in tors.iter().enumerate() {
            sim.add_physical(PhysicalSwitch::new(
                *tor,
                self.profile.clone(),
                rng.fork(2 + i as u64),
            ));
        }
        for (i, w) in host_vswitches.iter().enumerate() {
            sim.add_vswitch(self.telemetered(VSwitch::new(*w, rng.fork(100 + i as u64)), seed));
        }
        for (i, v) in mesh.iter().enumerate() {
            sim.add_vswitch(self.telemetered(VSwitch::new(*v, rng.fork(200 + i as u64)), seed));
        }
        sim.add_host(client, Self::client_ip());
        sim.add_host(attacker, Self::attacker_ip());
        for (r, srv) in servers.iter().enumerate() {
            sim.add_host(*srv, Self::server_ip(r));
        }
        for (r, h) in rack_client_hosts.iter().enumerate() {
            sim.add_host(*h, Self::rack_client_ip(r));
        }

        if let Some((idx, at)) = self.fail_vswitch {
            if idx < mesh.len() {
                sim.fail_vswitch_at(mesh[idx], at);
            }
        }

        let rack: Vec<(NodeId, IpAddr, IpAddr)> = rack_client_hosts
            .iter()
            .enumerate()
            .map(|(r, h)| (*h, Self::rack_client_ip(r), Self::server_ip(r)))
            .collect();
        self.attach_workloads_with(&mut sim, attacker, client, &rack, &mut rng);
        sim
    }

    fn attach_workloads(
        &self,
        sim: &mut Simulation,
        attacker: NodeId,
        client: NodeId,
        rng: &mut SimRng,
    ) {
        self.attach_workloads_with(sim, attacker, client, &[], rng);
    }

    fn attach_workloads_with(
        &self,
        sim: &mut Simulation,
        attacker: NodeId,
        client: NodeId,
        rack: &[(NodeId, IpAddr, IpAddr)],
        rng: &mut SimRng,
    ) {
        let mut alloc = FlowIdAllocator::new();
        let target = self.victim_ip();
        if let Some(a) = &self.attack {
            // Poisson spacing: hping3's constant `-i` interval still jitters
            // at OS granularity; exact periodicity would phase-lock with the
            // OFA service period and let probe packets sneak into the queue.
            let src =
                DdosAttacker::new(a.rate, target, a.start, a.end, alloc.stream(), rng.fork(11))
                    .poisson();
            sim.add_source(attacker, Box::new(src));
        }
        if let Some(c) = &self.clients {
            let src = ClientWorkload::new(
                c.rate,
                Self::client_ip(),
                target,
                SimTime::ZERO,
                self.horizon,
                alloc.stream(),
                rng.fork(12),
            )
            .with_size(c.size)
            .with_packet_interval(c.packet_interval)
            .with_packet_size(c.packet_size)
            .poisson();
            // Single-packet probes replicate the paper's methodology:
            // every probe is a fresh (src, dst) pair.
            let src = if matches!(c.size, FlowSize::Fixed(1)) {
                src.with_spoofed_sources(1 << 20)
            } else {
                src
            };
            sim.add_source(client, Box::new(src));
        }
        if let Some(profile) = &self.flash {
            let src = FlashCrowd::new(
                *profile,
                target,
                SimTime::ZERO,
                self.horizon,
                alloc.stream(),
                rng.fork(13),
            );
            sim.add_source(client, Box::new(src));
        }
        if let Some(rate) = self.trace_rate {
            let mut hosts = vec![Self::client_ip()];
            for i in 0..self.n_servers {
                hosts.push(Self::server_ip(i));
            }
            // Cap flow sizes so flows can complete within experiment
            // horizons (2000 pkts at 1 ms pacing = 2 s max duration).
            let src = TraceWorkload::new(
                rate,
                hosts,
                SimTime::ZERO,
                self.horizon,
                alloc.stream(),
                rng.fork(14),
            )
            .with_sizes(1, 2000, 1.2);
            sim.add_source(client, Box::new(src));
        }
        if let Some(e) = &self.elephants {
            // Elephants share the attacker's ingress port, so during the
            // surge they are shed to the overlay and become migration
            // candidates (§5.3's scenario: large flows start on the
            // overlay while the control path is congested).
            let mut ids = alloc.stream();
            let mut arrivals = Vec::new();
            for i in 0..e.count {
                let id = ids.next_id();
                sim.track_flow(id);
                // Distinct per-elephant sources so each elephant has its
                // own (src, dst) rule set.
                let key = FlowKey::tcp(
                    IpAddr(Self::attacker_ip().0 + 10 + i as u32),
                    20_000 + i as u16,
                    target,
                    5001,
                );
                // Stagger offsets avoid the controller's 10 ms tick grid:
                // arriving right after a tick would catch the ingress
                // queue momentarily below the overlay threshold.
                arrivals.push(FlowArrival {
                    at: e.start + SimDuration::from_micros(237_300 * i as u64 + 3_700),
                    flow: FlowSpec {
                        id,
                        key,
                        packets: e.packets,
                        packet_size: 1500,
                        packet_interval: SimDuration::from_secs_f64(1.0 / e.pps),
                        is_attack: false,
                    },
                });
            }
            sim.add_source(attacker, Box::new(ScriptedSource::new(arrivals)));
        }
        if let Some(rate) = self.rack_clients {
            // Per-rack probe clients (multi-rack only): each rack's client
            // targets its own rack's server, so the traffic stays mostly
            // rack-local. Distinct RNG forks keep each rack's arrival
            // process independent of rack count.
            for (r, (host, src_ip, dst_ip)) in rack.iter().enumerate() {
                let src = ClientWorkload::new(
                    rate,
                    *src_ip,
                    *dst_ip,
                    SimTime::ZERO,
                    self.horizon,
                    alloc.stream(),
                    rng.fork(40 + r as u64),
                )
                .poisson();
                sim.add_source(*host, Box::new(src));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scotch_switch::SwitchProfile;

    #[test]
    fn single_switch_topology_shape() {
        let sim = Scenario::single_switch(SwitchProfile::pica8_pronto_3780())
            .with_clients(10.0)
            .build(1);
        // dut + attacker + client + server.
        assert_eq!(sim.topo.node_count(), 4);
        assert_eq!(sim.topo.nodes_of_kind(NodeKind::PhysicalSwitch).len(), 1);
        assert_eq!(sim.topo.nodes_of_kind(NodeKind::Host).len(), 3);
    }

    #[test]
    fn ovs_dut_is_a_vswitch_node() {
        let sim = Scenario::single_switch(SwitchProfile::open_vswitch())
            .with_clients(10.0)
            .build(1);
        assert_eq!(sim.topo.nodes_of_kind(NodeKind::VSwitch).len(), 1);
        assert_eq!(sim.topo.nodes_of_kind(NodeKind::PhysicalSwitch).len(), 0);
    }

    #[test]
    fn datacenter_topology_shape() {
        let sim = Scenario::overlay_datacenter(3).with_servers(2).build(1);
        // 3 mesh + 2 host vswitches.
        assert_eq!(sim.topo.nodes_of_kind(NodeKind::VSwitch).len(), 5);
        assert_eq!(sim.topo.nodes_of_kind(NodeKind::PhysicalSwitch).len(), 1);
        // attacker + client + 2 servers.
        assert_eq!(sim.topo.nodes_of_kind(NodeKind::Host).len(), 4);
        assert_eq!(sim.app.overlay.mesh.len(), 3);
        // LB (3) + mesh full-mesh (6) + delivery (3 mesh x 2 hostvsw = 6).
        assert_eq!(sim.app.overlay.tunnel_count(), 15);
    }

    #[test]
    fn middlebox_adds_firewall_and_policy_tunnels() {
        let sim = Scenario::overlay_datacenter(2).with_middlebox().build(1);
        assert_eq!(sim.topo.nodes_of_kind(NodeKind::Middlebox).len(), 1);
        assert_eq!(sim.app.overlay.policy_in_tunnels.len(), 1);
        assert_eq!(sim.app.overlay.policy_out_tunnels.len(), 1);
        // The middlebox hangs off the switch with two parallel links.
        let mb = sim.topo.nodes_of_kind(NodeKind::Middlebox)[0];
        let ps = sim.topo.nodes_of_kind(NodeKind::PhysicalSwitch)[0];
        assert_eq!(sim.topo.ports_towards(ps, mb).len(), 2);
    }

    #[test]
    fn multirack_topology_shape() {
        let sim = Scenario::multirack(3, 2).build(1);
        // spine + 3 ToRs.
        assert_eq!(sim.topo.nodes_of_kind(NodeKind::PhysicalSwitch).len(), 4);
        // 3 racks x (1 hostvsw + 2 mesh) = 9 vswitches.
        assert_eq!(sim.topo.nodes_of_kind(NodeKind::VSwitch).len(), 9);
        // attacker + client + 3 servers.
        assert_eq!(sim.topo.nodes_of_kind(NodeKind::Host).len(), 5);
        assert_eq!(sim.app.overlay.mesh.len(), 6);
    }

    #[test]
    fn multirack_victim_is_in_the_last_rack() {
        let s = Scenario::multirack(3, 1);
        assert_eq!(s.victim_ip(), Scenario::server_ip(2));
        let s = Scenario::overlay_datacenter(2);
        assert_eq!(s.victim_ip(), Scenario::server_ip(0));
    }

    #[test]
    fn multirack_local_mesh_is_rack_local() {
        let sim = Scenario::multirack(2, 1).build(1);
        // Each server's local mesh vSwitch shares its rack (adjacent to the
        // same ToR).
        for (host, mesh) in &sim.app.overlay.local_mesh {
            let host_vsw = sim.app.overlay.host_vswitch[host];
            let tor_of = |n: NodeId| {
                sim.topo
                    .neighbors(n)
                    .into_iter()
                    .find(|x| sim.topo.kind(*x) == NodeKind::PhysicalSwitch)
                    .unwrap()
            };
            assert_eq!(tor_of(host_vsw), tor_of(*mesh));
        }
    }

    #[test]
    #[should_panic(expected = "two racks")]
    fn multirack_requires_two_racks() {
        let _ = Scenario::multirack(1, 1);
    }

    #[test]
    fn scripted_source_replays_in_order() {
        use scotch_workload::FlowSpec;
        let key = FlowKey::tcp(IpAddr::new(1, 1, 1, 1), 1, IpAddr::new(2, 2, 2, 2), 80);
        let arrivals: Vec<FlowArrival> = (0..3)
            .map(|i| FlowArrival {
                at: SimTime::from_secs(i),
                flow: FlowSpec {
                    id: scotch_net::FlowId(i),
                    key,
                    packets: 1,
                    packet_size: 64,
                    packet_interval: SimDuration::from_millis(1),
                    is_attack: false,
                },
            })
            .collect();
        let mut src = ScriptedSource::new(arrivals.clone());
        for want in arrivals {
            assert_eq!(src.next_arrival().unwrap(), want);
        }
        assert!(src.next_arrival().is_none());
    }
}
