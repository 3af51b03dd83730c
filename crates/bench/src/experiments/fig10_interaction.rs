//! **Fig. 10** — "Interaction of the data path and the control path at the
//! Pica8 switch."
//!
//! A pre-installed rule forwards data traffic at 500 / 1000 / 2000 pps
//! while the controller attempts rule insertions at a swept rate; the
//! series is the data-path packet loss ratio. Expected shape: near-zero
//! loss until a turning point around 1300 rules/s, then a jump past 90 %.

use crate::{Scale, Table};
use scotch_net::PortId;
use scotch_net::{FlowId, FlowKey, IpAddr, NodeId, Packet};
use scotch_openflow::{Action, ControllerToSwitch, FlowModCommand, FlowRule, Match, TableId};
use scotch_runner::{Job, SweepRunner};
use scotch_sim::{SimRng, SimTime};
use scotch_switch::{DropReason, Output, PhysicalSwitch, SwitchProfile};

/// Measure data-path loss at one (insertion rate, data rate) point.
fn loss_ratio(insert_rate: f64, data_pps: f64, secs: f64, seed: u64) -> f64 {
    let mut sw = PhysicalSwitch::new(
        NodeId(0),
        SwitchProfile::pica8_pronto_3780(),
        SimRng::new(seed ^ (insert_rate as u64) << 16 ^ data_pps as u64),
    );
    // Pre-installed forwarding rule (quiet period, then measurement). The
    // switch's replies (overload/table-full errors) are not measured here.
    let mut replies = Vec::new();
    sw.handle_controller_msg(
        SimTime::ZERO,
        ControllerToSwitch::FlowMod {
            table: TableId(0),
            command: FlowModCommand::Add(FlowRule::apply(
                Match::ANY,
                1,
                &[Action::Output(PortId(1))],
            )),
        },
        &mut replies,
    );
    let key = FlowKey::tcp(IpAddr::new(10, 0, 0, 1), 1024, IpAddr::new(10, 0, 1, 1), 80);

    // Interleave insertions and data packets on their own clocks; skip a
    // warm-up second so the rate estimators settle.
    let warmup = SimTime::from_secs(1);
    let end = SimTime::from_secs_f64(1.0 + secs);
    let mut lost = 0u64;
    let mut total = 0u64;
    let insert_gap = (1e9 / insert_rate) as u64;
    let data_gap = (1e9 / data_pps) as u64;
    let mut t_insert = 0u64;
    let mut t_data = 0u64;
    let mut rule_i = 0u32;
    let mut pkt_i = 0u64;
    loop {
        if t_insert.min(t_data) >= end.as_nanos() {
            break;
        }
        if t_insert <= t_data {
            let now = SimTime::from_nanos(t_insert);
            sw.handle_controller_msg(
                now,
                ControllerToSwitch::FlowMod {
                    table: TableId(1),
                    command: FlowModCommand::Add(FlowRule::apply(
                        Match::src_dst(IpAddr(0x0b00_0000 + rule_i), IpAddr::new(9, 9, 9, 9)),
                        2,
                        &[],
                    )),
                },
                &mut replies,
            );
            replies.clear();
            rule_i = rule_i.wrapping_add(1) % 1_000_000;
            t_insert += insert_gap;
        } else {
            let now = SimTime::from_nanos(t_data);
            let pkt = Packet::data(key, FlowId(1), now, pkt_i as u32, 1000);
            pkt_i += 1;
            let outs = sw.handle_packet(now, PortId(0), pkt);
            if now >= warmup {
                total += 1;
                if matches!(
                    outs.first(),
                    Some(Output::Dropped {
                        reason: DropReason::DataPlaneOverload,
                        ..
                    })
                ) {
                    lost += 1;
                }
            }
            t_data += data_gap;
        }
    }
    lost as f64 / total.max(1) as f64
}

/// Run the Fig. 10 sweep.
pub fn run(scale: Scale, seed: u64) -> Table {
    let insert_rates: Vec<f64> = match scale {
        Scale::Full => vec![
            200.0, 400.0, 600.0, 800.0, 1000.0, 1100.0, 1200.0, 1300.0, 1400.0, 1600.0, 2000.0,
            2500.0, 3000.0,
        ],
        Scale::Smoke => vec![400.0, 1200.0, 2000.0],
    };
    let secs = scale.pick(6.0, 2.0);
    let mut table = Table::new(
        "fig10",
        "Data-path loss ratio vs attempted rule insertion rate (Pica8)",
        &["insert_rate", "loss_500pps", "loss_1000pps", "loss_2000pps"],
    );
    let jobs: Vec<Job<Vec<f64>>> = insert_rates
        .iter()
        .map(|&r| {
            Job::new(format!("insert{r}"), seed, move |_ctx| {
                vec![
                    r,
                    loss_ratio(r, 500.0, secs, seed),
                    loss_ratio(r, 1000.0, secs, seed),
                    loss_ratio(r, 2000.0, secs, seed),
                ]
            })
        })
        .collect();
    for row in SweepRunner::new().run("fig10", jobs).into_values() {
        table.push(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SEED;

    #[test]
    fn knee_at_1300() {
        let t = run(Scale::Smoke, DEFAULT_SEED);
        for row in &t.rows {
            let rate = row[0];
            for loss in &row[1..] {
                if rate < 1300.0 {
                    assert!(*loss < 0.05, "below knee: rate {rate} loss {loss}");
                } else {
                    assert!(*loss > 0.9, "above knee: rate {rate} loss {loss}");
                }
            }
        }
    }
}
