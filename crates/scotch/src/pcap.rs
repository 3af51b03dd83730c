//! libpcap captures of simulated traffic.
//!
//! smoltcp-style debugging parity: any node can be tapped and every packet
//! arriving there is appended, as an Ethernet frame, to a standard libpcap
//! byte stream that Wireshark/tcpdump open directly.
//!
//! ## Frame format
//!
//! Each packet becomes an Ethernet header (zero MACs), an MPLS shim per
//! label when the packet carries any (top of stack first, ethertype
//! `0x8847`), a 20-byte IPv4 header and a 20-byte TCP-shaped L4 header
//! (UDP and ICMP use the same layout). Simulation-only metadata
//! (`flow_id`, `born_at`, `is_attack`) is not written. A [`Label`] maps
//! onto the 20-bit MPLS label space: bit 19 marks a tunnel label (ids
//! below 2^19), otherwise the value is an ingress port. The IPv4
//! identification field carries the low 16 bits of the sequence number,
//! the TCP sequence field all 32, and the TCP flags tell a flow's first
//! packet (SYN) from data (ACK).
//!
//! ```no_run
//! use scotch::scenario::Scenario;
//! use scotch_sim::SimTime;
//!
//! let mut sim = Scenario::overlay_datacenter(2).with_clients(50.0).build(1);
//! let server = sim.topo.nodes_of_kind(scotch_net::NodeKind::Host)[2];
//! sim.capture_at(server);
//! let report = sim.run(SimTime::from_secs(3));
//! std::fs::write("server.pcap", report.captures[&server].bytes()).unwrap();
//! ```

use scotch_net::{Label, Packet, PacketKind, TunnelId};
use scotch_sim::SimTime;

/// libpcap little-endian magic.
pub const PCAP_MAGIC: u32 = 0xa1b2_c3d4;
/// Link type: Ethernet.
pub const LINKTYPE_ETHERNET: u32 = 1;

/// An in-memory libpcap capture.
#[derive(Debug, Clone)]
pub struct PcapCapture {
    buf: Vec<u8>,
    records: u64,
}

impl Default for PcapCapture {
    fn default() -> Self {
        Self::new()
    }
}

impl PcapCapture {
    /// An empty capture with the global header written.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&PCAP_MAGIC.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes()); // version major
        buf.extend_from_slice(&4u16.to_le_bytes()); // version minor
        buf.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        buf.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        buf.extend_from_slice(&65_535u32.to_le_bytes()); // snaplen
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        PcapCapture { buf, records: 0 }
    }

    /// Append one packet observed at `at`.
    ///
    /// Packets the frame format cannot represent (tunnel ids of 2^19 and
    /// above) are skipped — captures are diagnostics, not ground truth for
    /// accounting.
    pub fn record(&mut self, at: SimTime, packet: &Packet) {
        let Some(data) = encode_packet(packet) else {
            return;
        };
        let nanos = at.as_nanos();
        let secs = (nanos / 1_000_000_000) as u32;
        let usecs = ((nanos % 1_000_000_000) / 1_000) as u32;
        self.buf.extend_from_slice(&secs.to_le_bytes());
        self.buf.extend_from_slice(&usecs.to_le_bytes());
        self.buf
            .extend_from_slice(&(data.len() as u32).to_le_bytes());
        // Original length: the simulated on-wire size (payload included).
        self.buf
            .extend_from_slice(&packet.size.max(data.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&data);
        self.records += 1;
    }

    /// The capture as libpcap bytes (global header + records).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of recorded packets.
    pub fn records(&self) -> u64 {
        self.records
    }
}

const ETH_TYPE_IPV4: u16 = 0x0800;
const ETH_TYPE_MPLS: u16 = 0x8847;
/// Bit 19 of a 20-bit MPLS label marks a tunnel label.
const MPLS_TUNNEL_BIT: u32 = 1 << 19;

/// The 20-bit MPLS label of `l`, or `None` for a tunnel id of 2^19 and
/// above.
fn label_to_mpls(l: Label) -> Option<u32> {
    match l {
        Label::Tunnel(TunnelId(t)) => (t < MPLS_TUNNEL_BIT).then_some(MPLS_TUNNEL_BIT | t),
        Label::IngressPort(p) => Some(u32::from(p)),
    }
}

/// Serialize a simulated packet as an Ethernet frame (see the module docs
/// for the layout), or `None` if one of its labels has no MPLS value.
fn encode_packet(p: &Packet) -> Option<Vec<u8>> {
    let mut w = Vec::with_capacity(64);
    // Ethernet: zero MACs; ethertype depends on label stack.
    w.extend_from_slice(&[0; 12]);
    if p.labels.is_empty() {
        w.extend_from_slice(&ETH_TYPE_IPV4.to_be_bytes());
    } else {
        w.extend_from_slice(&ETH_TYPE_MPLS.to_be_bytes());
        // Top of stack first on the wire.
        for (i, l) in p.labels.iter().rev().enumerate() {
            let v = label_to_mpls(l)?;
            let bottom = (i == p.labels.len() - 1) as u32;
            w.extend_from_slice(&((v << 12) | (bottom << 8) | 64).to_be_bytes());
        }
    }
    // IPv4 header (20 bytes, no options).
    w.extend_from_slice(&[0x45, 0]);
    w.extend_from_slice(&40u16.to_be_bytes()); // total length: IPv4 + L4 headers
    w.extend_from_slice(&(p.seq as u16).to_be_bytes()); // identification
    w.extend_from_slice(&[0, 0]); // flags, fragment offset
    w.extend_from_slice(&[64, p.key.proto.number()]); // ttl, protocol
    w.extend_from_slice(&[0, 0]); // checksum (not computed in the simulator)
    w.extend_from_slice(&p.key.src.0.to_be_bytes());
    w.extend_from_slice(&p.key.dst.0.to_be_bytes());
    // TCP-shaped L4 header (UDP uses the same 20-byte layout, padded).
    w.extend_from_slice(&p.key.sport.to_be_bytes());
    w.extend_from_slice(&p.key.dport.to_be_bytes());
    w.extend_from_slice(&p.seq.to_be_bytes());
    w.extend_from_slice(&[0; 4]); // ack
    let flags = if p.kind == PacketKind::FlowStart {
        0x02 // SYN
    } else {
        0x10 // ACK
    };
    w.extend_from_slice(&[0x50, flags]); // data offset, flags
    w.extend_from_slice(&0xffffu16.to_be_bytes()); // window
    w.extend_from_slice(&[0; 4]); // checksum, urgent
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scotch_net::{FlowId, FlowKey, IpAddr, LabelStack, Protocol};

    /// A big-endian cursor over a frame.
    struct Reader<'a>(&'a [u8]);

    impl Reader<'_> {
        fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
            let head = self.0.get(..N)?.try_into().ok();
            self.0 = &self.0[N..];
            head
        }
        fn u8(&mut self) -> Option<u8> {
            self.take::<1>().map(|b| b[0])
        }
        fn u16(&mut self) -> Option<u16> {
            self.take().map(u16::from_be_bytes)
        }
        fn u32(&mut self) -> Option<u32> {
            self.take().map(u32::from_be_bytes)
        }
    }

    fn mpls_to_label(v: u32) -> Label {
        if v & MPLS_TUNNEL_BIT != 0 {
            Label::Tunnel(TunnelId(v & (MPLS_TUNNEL_BIT - 1)))
        } else {
            Label::IngressPort((v & 0xffff) as u16)
        }
    }

    /// Reference decoder for [`encode_packet`]'s frames, or `None` for a
    /// malformed one. `flow_id`, `born_at` and `is_attack` come back as
    /// defaults; `size` is restored from `wire_size` (the original on-wire
    /// length, possibly larger than the header bytes).
    fn decode_packet(buf: &[u8], wire_size: u32) -> Option<Packet> {
        let mut r = Reader(buf);
        r.take::<12>()?; // MACs
        let mut ethertype = r.u16()?;
        let mut labels_top_first = Vec::new();
        if ethertype == ETH_TYPE_MPLS {
            loop {
                let shim = r.u32()?;
                labels_top_first.push(mpls_to_label(shim >> 12));
                if shim & (1 << 8) != 0 {
                    break;
                }
            }
            ethertype = ETH_TYPE_IPV4;
        }
        if ethertype != ETH_TYPE_IPV4 || r.u8()? != 0x45 {
            return None;
        }
        r.take::<8>()?; // tos, total length, identification, fragment, ttl
        let proto = match r.u8()? {
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            1 => Protocol::Icmp,
            _ => return None,
        };
        r.take::<2>()?; // checksum
        let key = FlowKey {
            src: IpAddr(r.u32()?),
            dst: IpAddr(r.u32()?),
            proto,
            sport: r.u16()?,
            dport: r.u16()?,
        };
        let seq = r.u32()?;
        r.take::<5>()?; // ack, data offset
        let kind = if r.u8()? & 0x02 != 0 {
            PacketKind::FlowStart
        } else {
            PacketKind::Data
        };
        let mut p = Packet {
            key,
            flow_id: FlowId(0),
            kind,
            size: wire_size,
            born_at: SimTime::ZERO,
            seq,
            labels: LabelStack::new(),
            is_attack: false,
        };
        // Stack stores bottom-first.
        for l in labels_top_first.into_iter().rev() {
            p.labels.push(l);
        }
        Some(p)
    }

    fn pkt(sport: u16) -> Packet {
        Packet::flow_start(
            FlowKey::tcp(IpAddr::new(1, 0, 0, 1), sport, IpAddr::new(2, 0, 0, 2), 80),
            FlowId(1),
            SimTime::from_millis(1500),
        )
    }

    #[test]
    fn global_header_is_valid_libpcap() {
        let cap = PcapCapture::new();
        let b = cap.bytes();
        assert_eq!(b.len(), 24);
        assert_eq!(u32::from_le_bytes(b[0..4].try_into().unwrap()), PCAP_MAGIC);
        assert_eq!(u16::from_le_bytes(b[4..6].try_into().unwrap()), 2);
        assert_eq!(u16::from_le_bytes(b[6..8].try_into().unwrap()), 4);
        assert_eq!(
            u32::from_le_bytes(b[20..24].try_into().unwrap()),
            LINKTYPE_ETHERNET
        );
    }

    #[test]
    fn records_carry_timestamps_and_lengths() {
        let mut cap = PcapCapture::new();
        cap.record(SimTime::from_millis(1_234), &pkt(1));
        assert_eq!(cap.records(), 1);
        let b = cap.bytes();
        let rec = &b[24..];
        let secs = u32::from_le_bytes(rec[0..4].try_into().unwrap());
        let usecs = u32::from_le_bytes(rec[4..8].try_into().unwrap());
        assert_eq!(secs, 1);
        assert_eq!(usecs, 234_000);
        let incl = u32::from_le_bytes(rec[8..12].try_into().unwrap()) as usize;
        assert_eq!(rec.len(), 16 + incl);
    }

    #[test]
    fn recorded_bytes_decode_back() {
        let mut cap = PcapCapture::new();
        let p = pkt(9);
        cap.record(SimTime::ZERO, &p);
        let rec = &cap.bytes()[24..];
        let incl = u32::from_le_bytes(rec[8..12].try_into().unwrap()) as usize;
        let data = &rec[16..16 + incl];
        let back = decode_packet(data, p.size).unwrap();
        assert_eq!(back.key, p.key);
    }

    #[test]
    fn label_mapping_is_bijective_in_range() {
        for l in [
            Label::Tunnel(TunnelId(0)),
            Label::Tunnel(TunnelId(524_287)),
            Label::IngressPort(0),
            Label::IngressPort(65_535),
        ] {
            assert_eq!(mpls_to_label(label_to_mpls(l).unwrap()), l);
        }
        assert!(label_to_mpls(Label::Tunnel(TunnelId(1 << 19))).is_none());
    }

    #[test]
    fn packet_bytes_roundtrip_with_label_stack() {
        let key = FlowKey::tcp(IpAddr::new(10, 0, 0, 1), 1234, IpAddr::new(10, 0, 1, 2), 80);
        let mut p = Packet::flow_start(key, FlowId(3), SimTime::ZERO).with_size(500);
        p.push_label(Label::IngressPort(2));
        p.push_label(Label::Tunnel(TunnelId(9)));
        let bytes = encode_packet(&p).unwrap();
        let back = decode_packet(&bytes, p.size).unwrap();
        assert_eq!(back.key, p.key);
        assert_eq!(back.labels, p.labels);
        // 500 B payload + two 4 B label shims.
        assert_eq!(back.size, 508);
        assert_eq!(back.kind, PacketKind::FlowStart);
    }

    #[test]
    fn multiple_records_append() {
        let mut cap = PcapCapture::new();
        for i in 0..10 {
            cap.record(SimTime::from_millis(i), &pkt(i as u16));
        }
        assert_eq!(cap.records(), 10);
        assert!(cap.bytes().len() > 24 + 10 * 16);
    }

    proptest! {
        /// Arbitrary packets survive the bytes roundtrip (protocol-visible
        /// fields).
        #[test]
        fn prop_packet_roundtrip(
            src: u32, dst: u32, sport: u16, dport: u16,
            seq in 0u32..1_000_000,
            size in 64u32..9000,
            // The inline stack holds at most 2 labels (§5.2).
            n_labels in 0usize..3,
        ) {
            let k = FlowKey::tcp(IpAddr(src), sport, IpAddr(dst), dport);
            let mut p = Packet::data(k, FlowId(1), SimTime::ZERO, seq, size);
            for i in 0..n_labels {
                p.push_label(if i % 2 == 0 {
                    Label::IngressPort(i as u16)
                } else {
                    Label::Tunnel(TunnelId(i as u32 * 100))
                });
            }
            let bytes = encode_packet(&p).unwrap();
            let back = decode_packet(&bytes, p.size).unwrap();
            prop_assert_eq!(back.key, p.key);
            prop_assert_eq!(back.labels, p.labels);
            prop_assert_eq!(back.seq, seq);
        }
    }
}
