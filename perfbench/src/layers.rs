//! Maps `DispatchProfiler` rows onto the simulator's layers.
//!
//! The profiler times each dispatched event by kind (`Report::profile`).
//! Every row it can emit belongs to exactly one layer here; a row this
//! table does not know fails the run, so renaming a profiler row cannot
//! silently drop a layer from the benchmark.

use scotch_sim::ProfileEntry;

/// One layer of the per-layer table.
pub struct Layer {
    /// Metric prefix (`<name>.count`, `<name>.busy_ms`, ...).
    pub name: &'static str,
    /// Profiler rows this layer owns.
    pub rows: &'static [&'static str],
    /// The end-to-end metric this layer should move, and where.
    pub moves: &'static str,
}

/// The statistics reported for every layer, with their units.
pub const LAYER_STATS: [(&str, &str); 4] = [
    ("count", "count"),
    ("busy_ms", "ms"),
    ("mean_ns", "ns"),
    ("p99_ns", "ns"),
];

/// Layer table: crate modules in the comments, profiler rows in `rows`.
pub const LAYERS: &[Layer] = &[
    // scotch_workload flow sources: Poisson arrivals pulled one at a time.
    Layer {
        name: "workload.source_next",
        rows: &["source_next"],
        moves: "run_s on ddos_punt",
    },
    // Host emission of each packet of a generated flow.
    Layer {
        name: "workload.emit",
        rows: &["emit_packet"],
        moves: "run_s on ddos_punt",
    },
    // scotch_switch pipelines plus the scotch_openflow::table lookup.
    Layer {
        name: "switch.arrive",
        rows: &["arrive"],
        moves: "run_s on ddos_punt, partly overlay_flood",
    },
    // scotch_net::tunnel label switching through scotch::overlay.
    Layer {
        name: "overlay.tunnel_transit",
        rows: &["arrive_tunnel_transit"],
        moves: "run_s on overlay_flood",
    },
    // scotch::app Packet-In decision and controller::flowdb.
    Layer {
        name: "app.packet_in",
        rows: &["ctrl_packet_in"],
        moves: "run_s on overlay_flood; flat on ddos_punt",
    },
    // Periodic controller work: queue service, overlay load balancing.
    Layer {
        name: "app.tick",
        rows: &["controller_tick"],
        moves: "run_s on overlay_flood; flat on ddos_punt",
    },
    // Messages served after the optional controller-capacity gate.
    Layer {
        name: "app.gated",
        rows: &["ctrl_processed"],
        moves: "none here: no workload gates the controller",
    },
    // Overlay liveness probes (scotch::overlay heartbeats).
    Layer {
        name: "app.heartbeat",
        rows: &["heartbeat"],
        moves: "run_s on overlay_flood, small",
    },
    // scotch_switch::ofa FlowMod install and scotch_openflow::table insert.
    Layer {
        name: "ofa.flowmod",
        rows: &["ctrl_flowmod"],
        moves: "run_s on overlay_flood",
    },
    // Other controller-to-switch messages: PacketOut, GroupMod, stats requests.
    Layer {
        name: "ofa.ctrl_to_switch",
        rows: &["ctrl_to_switch"],
        moves: "run_s on overlay_flood",
    },
    // controller::monitor and scotch::telemetry: stats replies (plus echo
    // replies and FlowRemoved, which share the event kind).
    Layer {
        name: "monitor.stats_reply",
        rows: &["ctrl_from_switch"],
        moves: "run_s on overlay_flood, small; flat on ddos_punt",
    },
    // The periodic FlowStats poll and the vSwitch table walk behind it.
    Layer {
        name: "monitor.poll",
        rows: &["stats_poll"],
        moves: "run_s on overlay_flood, small; flat on ddos_punt",
    },
    // Flow-table idle/hard timeout sweep.
    Layer {
        name: "switch.expiry_sweep",
        rows: &["expiry_sweep"],
        moves: "run_s on every simulation workload, small",
    },
    // Scripted faults, elastic scale-out and controller-cluster events.
    Layer {
        name: "fault.scripted",
        rows: &[
            "fail_vswitch",
            "join_vswitch",
            "recover_vswitch",
            "inject_fault",
            "set_link_up",
            "clear_link_degrade",
            "clear_ofa_slowdown",
            "clear_controller_stall",
            "cluster_handoff_done",
            "recover_replica",
            "clear_ctrl_partition",
        ],
        moves: "none here: no workload injects faults",
    },
];

/// Per-layer wall figures from one traced run's profile.
pub struct LayerTable {
    /// `(layer, [count, busy_ms, mean_ns, p99_ns])`, in [`LAYERS`] order.
    pub rows: Vec<(&'static Layer, [f64; 4])>,
    /// Sum of `busy_ms` over every layer.
    pub busy_ms: f64,
}

/// Fold profiler rows into layers. Fails on a row no layer owns. A layer
/// owning several rows reports the largest of their p99s.
pub fn fold(profile: &[ProfileEntry]) -> Result<LayerTable, String> {
    let mut rows: Vec<(&'static Layer, [f64; 4])> = LAYERS.iter().map(|l| (l, [0.0; 4])).collect();
    for entry in profile {
        let (_, stats) = rows
            .iter_mut()
            .find(|(l, _)| l.rows.contains(&entry.name))
            .ok_or_else(|| {
                format!(
                    "profiler row `{}` is not in the layer table (perfbench/src/layers.rs)",
                    entry.name
                )
            })?;
        stats[0] += entry.count as f64;
        stats[1] += entry.total_ns / 1e6;
        stats[3] = stats[3].max(entry.p99_ns);
    }
    for (_, stats) in &mut rows {
        if stats[0] > 0.0 {
            stats[2] = stats[1] * 1e6 / stats[0];
        }
    }
    let busy_ms = rows.iter().map(|(_, s)| s[1]).sum();
    Ok(LayerTable { rows, busy_ms })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &'static str, count: u64, total_ns: f64) -> ProfileEntry {
        ProfileEntry {
            name,
            count,
            mean_ns: total_ns / count as f64,
            p50_ns: 0.0,
            p99_ns: 7.0,
            max_ns: 0.0,
            total_ns,
        }
    }

    #[test]
    fn rows_fold_into_their_layers() {
        let t = fold(&[entry("arrive", 4, 2e6), entry("inject_fault", 1, 1e6)]).unwrap();
        let arrive = t
            .rows
            .iter()
            .find(|(l, _)| l.name == "switch.arrive")
            .unwrap();
        assert_eq!(arrive.1, [4.0, 2.0, 5e5, 7.0]);
        assert_eq!(t.busy_ms, 3.0);
    }

    #[test]
    fn unknown_rows_fail() {
        let err = fold(&[entry("renamed_row", 1, 1.0)]).err().unwrap();
        assert!(err.contains("renamed_row"));
    }

    #[test]
    fn every_row_has_one_layer() {
        let mut seen = std::collections::BTreeSet::new();
        for row in LAYERS.iter().flat_map(|l| l.rows) {
            assert!(seen.insert(*row), "{row} owned twice");
        }
    }
}
