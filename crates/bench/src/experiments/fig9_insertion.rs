//! **Fig. 9** — "Maximum flow rule insertion rate at the Pica8 switch."
//!
//! The controller generates FlowMods at a constant attempted rate with no
//! data traffic; the successful insertion rate is measured (the paper
//! counts installed rules via periodic table queries). Expected shape:
//! identity up to ~200 rules/s, then a concave climb flattening at about
//! 1000 rules/s.
//!
//! Like the paper's isolated bench, this drives the switch model directly
//! rather than through a full network simulation.

use crate::{Scale, Table};
use scotch_net::PortId;
use scotch_net::{FlowKey, IpAddr, NodeId};
use scotch_openflow::{Action, ControllerToSwitch, FlowModCommand, FlowRule, Match, TableId};
use scotch_sim::{SimRng, SimTime};
use scotch_switch::{PhysicalSwitch, SwitchProfile};

/// Run the Fig. 9 insertion sweep.
pub fn run(scale: Scale, seed: u64) -> Table {
    let rates: Vec<f64> = match scale {
        Scale::Full => vec![
            50.0, 100.0, 150.0, 200.0, 300.0, 400.0, 600.0, 800.0, 1000.0, 1500.0, 2000.0, 2500.0,
            3000.0,
        ],
        Scale::Smoke => vec![100.0, 200.0, 800.0, 3000.0],
    };
    let secs = scale.pick(10.0, 4.0);

    let mut table = Table::new(
        "fig9",
        "Successful vs attempted flow rule insertion rate (Pica8)",
        &["attempted_rate", "successful_rate"],
    );
    for rate in rates {
        // Fresh switch per point, like re-running the testbed.
        let mut sw = PhysicalSwitch::new(
            NodeId(0),
            SwitchProfile::pica8_pronto_3780(),
            SimRng::new(seed ^ rate as u64),
        );
        let n = (rate * secs) as u64;
        let gap_ns = (1e9 / rate) as u64;
        // Failed inserts come back as error replies; the OFA counters
        // below already tally them.
        let mut replies = Vec::new();
        for k in 0..n {
            let now = SimTime::from_nanos(k * gap_ns);
            // All rules distinct, 10 s timeout, as in §6.1.
            let key = FlowKey::tcp(
                IpAddr(0x0a00_0000 + (k % 1_000_000) as u32),
                1024,
                IpAddr::new(10, 0, 1, 1),
                80,
            );
            sw.handle_controller_msg(
                now,
                ControllerToSwitch::FlowMod {
                    table: TableId(0),
                    command: FlowModCommand::Add(
                        FlowRule::apply(
                            Match::src_dst(key.src, key.dst),
                            1,
                            &[Action::Output(PortId(1))],
                        )
                        .with_idle_timeout(scotch_sim::SimDuration::from_secs(10)),
                    ),
                },
                &mut replies,
            );
            replies.clear();
            // Periodic expiry keeps the table from filling, mirroring the
            // paper's 10 s rule timeout during the measurement.
            if k % 1000 == 999 {
                sw.expire_flows(now);
            }
        }
        let st = sw.ofa_stats();
        table.push(vec![rate, st.rules_inserted as f64 / secs]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SEED;

    #[test]
    fn shape_matches_fig9() {
        let t = run(Scale::Smoke, DEFAULT_SEED);
        let get =
            |rate: f64| -> f64 { t.rows.iter().find(|r| r[0] == rate).map(|r| r[1]).unwrap() };
        // Lossless region: success == attempted.
        assert!((get(100.0) - 100.0).abs() < 5.0);
        assert!((get(200.0) - 200.0).abs() < 10.0);
        // Overload region: concave climb below attempted...
        let s800 = get(800.0);
        assert!(s800 < 800.0 && s800 > 250.0, "s800={s800}");
        // ...flattening at the ~1000/s ceiling.
        let s3000 = get(3000.0);
        assert!((850.0..1100.0).contains(&s3000), "plateau {s3000}");
    }
}
