//! Flow ids that a custom source picks need not be dense. `FlowId` encodes
//! `stream << 48 | seq`, and the simulation indexes dense ids with a `Vec`
//! per stream; an id far beyond that range must still be accounted, not
//! grow a `Vec` to its sequence number.
use scotch::scenario::{Scenario, ScriptedSource};
use scotch_net::{FlowId, FlowKey};
use scotch_sim::{SimDuration, SimTime};
use scotch_switch::SwitchProfile;
use scotch_workload::{FlowArrival, FlowSpec};

#[test]
fn sparse_flow_ids_are_accounted() {
    const PACKETS: u32 = 5;
    const SIZE: u32 = 100;
    // A dense id, a sequence number of 2^32 in stream 0, and the largest
    // id (stream 0xFFFF, sequence 2^48 - 1).
    let ids = [FlowId(3), FlowId(1 << 32), FlowId(u64::MAX)];
    let arrivals = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| FlowArrival {
            at: SimTime::from_millis(100 + 50 * i as u64),
            flow: FlowSpec {
                id,
                key: FlowKey::tcp(
                    Scenario::client_ip(),
                    40_000 + i as u16,
                    Scenario::server_ip(0),
                    80,
                ),
                packets: PACKETS,
                packet_size: SIZE,
                packet_interval: SimDuration::from_millis(5),
                is_attack: false,
            },
        })
        .collect();
    let mut sim = Scenario::single_switch(SwitchProfile::pica8_pronto_3780()).build(1);
    let client = sim
        .topo
        .nodes_of_kind(scotch_net::NodeKind::Host)
        .into_iter()
        .find(|n| sim.topo.name(*n) == "client")
        .unwrap();
    sim.add_source(client, Box::new(ScriptedSource::new(arrivals)));
    let report = sim.run(SimTime::from_secs(1));

    assert_eq!(report.flows.len(), ids.len());
    for (f, id) in report.flows.iter().zip(ids) {
        assert_eq!(f.id, id);
        assert_eq!(f.emitted, PACKETS, "flow {id:?}");
        assert_eq!(f.delivered, PACKETS, "flow {id:?}");
        assert_eq!(f.delivered_bytes, u64::from(PACKETS * SIZE), "flow {id:?}");
        assert!(f.completion_time().is_some(), "flow {id:?}");
    }
    assert_eq!(report.misrouted, 0);
    assert_eq!(
        report.latency.count(),
        u64::from(PACKETS) * ids.len() as u64
    );
}
