//! OpenFlow 1.3 wire codec for the message subset Scotch uses.
//!
//! The simulation itself passes typed messages (the paper's contribution
//! is an overlay architecture, not a codec), but a Scotch controller
//! deployed against real switches speaks the OpenFlow 1.3 binary protocol
//! — this module provides that: spec-shaped framing (8-byte header,
//! version `0x04`), OXM TLV matches, instructions/actions, and the
//! message bodies for Packet-In/Out, FlowMod, GroupMod, FlowRemoved,
//! Echo, Barrier, Error and the flow-stats multipart pair.
//!
//! ## Scope and documented deviations
//!
//! * Simulation-only metadata does not ride the wire: a decoded
//!   [`Packet`]'s `flow_id`, `born_at` and `is_attack` are defaults; the
//!   §5.2 tunnel metadata of a Packet-In is carried in standard OXM
//!   `TUNNEL_ID` and `METADATA` fields.
//! * Our MPLS-ish [`Label`] maps onto the 20-bit MPLS label space: bit 19
//!   distinguishes tunnel labels (ids < 2^19) from ingress-port labels
//!   (< 2^16).
//! * `Action::Drop` encodes as an empty apply-actions list (OpenFlow's
//!   idiom for dropping); an empty list decodes back to `[Drop]`.
//! * `GroupModCommand::SetBucketAlive` is a controller-local shortcut with
//!   no OF1.3 equivalent (real controllers send a full `MODIFY`); encoding
//!   it returns [`WireError::NotRepresentable`].
//! * OXM prerequisite fields (`ETH_TYPE` before L3 matches, etc.) are
//!   emitted for label matches but not enforced on decode.

use crate::group::{Bucket, GroupEntry, GroupId, GroupType, SelectionPolicy};
use crate::messages::{
    ControllerToSwitch, FlowModCommand, FlowStat, GroupModCommand, OfError, PacketInReason,
    SwitchToController,
};
use crate::ofmatch::{Action, ActionList, Match};
use crate::table::{FlowRule, TableId};
use scotch_net::{
    FlowId, FlowKey, IpAddr, Label, LabelStack, Packet, PacketKind, PortId, Protocol, TunnelId,
};
use scotch_sim::{SimDuration, SimTime};

/// OpenFlow protocol version emitted/accepted.
pub const OFP_VERSION: u8 = 0x04; // OpenFlow 1.3

/// Reserved port: send to controller.
pub const OFPP_CONTROLLER: u32 = 0xffff_fffd;
const OFP_NO_BUFFER: u32 = 0xffff_ffff;

// Message types (ofp_type).
const OFPT_HELLO: u8 = 0;
const OFPT_ERROR: u8 = 1;
const OFPT_ECHO_REQUEST: u8 = 2;
const OFPT_ECHO_REPLY: u8 = 3;
const OFPT_FEATURES_REQUEST: u8 = 5;
const OFPT_FEATURES_REPLY: u8 = 6;
const OFPT_PACKET_IN: u8 = 10;
const OFPT_FLOW_REMOVED: u8 = 11;
const OFPT_PACKET_OUT: u8 = 13;
const OFPT_FLOW_MOD: u8 = 14;
const OFPT_GROUP_MOD: u8 = 15;
const OFPT_MULTIPART_REQUEST: u8 = 18;
const OFPT_MULTIPART_REPLY: u8 = 19;
const OFPT_BARRIER_REQUEST: u8 = 20;
const OFPT_BARRIER_REPLY: u8 = 21;

// OXM basic-class fields.
const OXM_CLASS_BASIC: u16 = 0x8000;
const OXM_IN_PORT: u8 = 0;
const OXM_METADATA: u8 = 2;
const OXM_ETH_TYPE: u8 = 5;
const OXM_IP_PROTO: u8 = 10;
const OXM_IPV4_SRC: u8 = 11;
const OXM_IPV4_DST: u8 = 12;
const OXM_TCP_SRC: u8 = 13;
const OXM_TCP_DST: u8 = 14;
const OXM_UDP_SRC: u8 = 15;
const OXM_UDP_DST: u8 = 16;
const OXM_MPLS_LABEL: u8 = 34;
const OXM_TUNNEL_ID: u8 = 38;

const ETH_TYPE_IPV4: u16 = 0x0800;
const ETH_TYPE_MPLS: u16 = 0x8847;

/// Datapath capabilities advertised in a FEATURES_REPLY.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features {
    /// The switch's datapath id (we use its topology `NodeId`).
    pub datapath_id: u64,
    /// Packet-In buffering capacity advertised by the switch.
    pub n_buffers: u32,
    /// Number of flow tables in the pipeline.
    pub n_tables: u8,
}

/// A decoded message: direction plus payload.
#[derive(Debug, Clone)]
pub enum OfMessage {
    /// Controller → switch.
    ToSwitch(ControllerToSwitch),
    /// Switch → controller.
    FromSwitch(SwitchToController),
    /// Connection setup: version negotiation (either direction).
    Hello,
    /// Controller asking for datapath capabilities.
    FeaturesRequest,
    /// Switch describing itself.
    FeaturesReply(Features),
}

/// Codec failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer too short / malformed length fields.
    Truncated,
    /// Header version is not OpenFlow 1.3.
    BadVersion(u8),
    /// Unknown or unsupported message type.
    UnsupportedType(u8),
    /// A field value that cannot be represented on the wire.
    NotRepresentable(&'static str),
    /// Malformed body content.
    Malformed(&'static str),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::BadVersion(v) => write!(f, "unsupported OpenFlow version {v:#x}"),
            WireError::UnsupportedType(t) => write!(f, "unsupported message type {t}"),
            WireError::NotRepresentable(what) => write!(f, "not representable on the wire: {what}"),
            WireError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Byte-order helpers
// ---------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer {
            buf: Vec::with_capacity(64),
        }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn pad(&mut self, n: usize) {
        self.buf.extend(std::iter::repeat_n(0, n));
    }
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    /// Patch a big-endian u16 length field at `at`.
    fn patch_u16(&mut self, at: usize, v: u16) {
        self.buf[at..at + 2].copy_from_slice(&v.to_be_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn skip(&mut self, n: usize) -> Result<(), WireError> {
        self.take(n).map(|_| ())
    }
}

// ---------------------------------------------------------------------
// Label <-> 20-bit MPLS label space
// ---------------------------------------------------------------------

fn label_to_mpls(l: Label) -> Result<u32, WireError> {
    match l {
        Label::Tunnel(TunnelId(t)) => {
            if t >= 1 << 19 {
                return Err(WireError::NotRepresentable("tunnel id >= 2^19"));
            }
            Ok((1 << 19) | t)
        }
        Label::IngressPort(p) => Ok(p as u32),
    }
}

fn mpls_to_label(v: u32) -> Label {
    if v & (1 << 19) != 0 {
        Label::Tunnel(TunnelId(v & ((1 << 19) - 1)))
    } else {
        Label::IngressPort((v & 0xffff) as u16)
    }
}

// ---------------------------------------------------------------------
// OXM match
// ---------------------------------------------------------------------

fn oxm_header(w: &mut Writer, field: u8, len: u8) {
    w.u16(OXM_CLASS_BASIC);
    w.u8(field << 1); // no mask
    w.u8(len);
}

/// Encode an ofp_match (type OFPMT_OXM = 1) with padding to 8 bytes.
fn encode_match(w: &mut Writer, m: &Match) -> Result<(), WireError> {
    let start = w.buf.len();
    w.u16(1); // OFPMT_OXM
    let len_at = w.buf.len();
    w.u16(0); // patched below

    if let Some(p) = m.in_port() {
        oxm_header(w, OXM_IN_PORT, 4);
        w.u32(p.0 as u32);
    }
    match m.top_label() {
        None => {}
        Some(None) => {
            oxm_header(w, OXM_ETH_TYPE, 2);
            w.u16(ETH_TYPE_IPV4);
        }
        Some(Some(l)) => {
            oxm_header(w, OXM_ETH_TYPE, 2);
            w.u16(ETH_TYPE_MPLS);
            oxm_header(w, OXM_MPLS_LABEL, 4);
            w.u32(label_to_mpls(l)?);
        }
    }
    if let Some(ip) = m.src() {
        oxm_header(w, OXM_IPV4_SRC, 4);
        w.u32(ip.0);
    }
    if let Some(ip) = m.dst() {
        oxm_header(w, OXM_IPV4_DST, 4);
        w.u32(ip.0);
    }
    if let Some(proto) = m.proto() {
        oxm_header(w, OXM_IP_PROTO, 1);
        w.u8(proto.number());
    }
    let (sp_field, dp_field) = match m.proto() {
        Some(Protocol::Udp) => (OXM_UDP_SRC, OXM_UDP_DST),
        _ => (OXM_TCP_SRC, OXM_TCP_DST),
    };
    if let Some(p) = m.sport() {
        oxm_header(w, sp_field, 2);
        w.u16(p);
    }
    if let Some(p) = m.dport() {
        oxm_header(w, dp_field, 2);
        w.u16(p);
    }

    let body_len = (w.buf.len() - start) as u16;
    w.patch_u16(len_at, body_len);
    // Pad the whole match to a multiple of 8.
    let pad = (8 - (body_len as usize % 8)) % 8;
    w.pad(pad);
    Ok(())
}

/// Decoded match plus the §5.2 metadata OXMs a Packet-In may carry.
struct DecodedMatch {
    matcher: Match,
    tunnel_id: Option<TunnelId>,
    metadata: Option<u64>,
}

fn decode_match(r: &mut Reader) -> Result<DecodedMatch, WireError> {
    let mtype = r.u16()?;
    if mtype != 1 {
        return Err(WireError::Malformed("match type"));
    }
    let mlen = r.u16()? as usize;
    if mlen < 4 {
        return Err(WireError::Malformed("match length"));
    }
    let mut body = Reader::new(r.take(mlen - 4)?);
    let mut m = Match::ANY;
    let mut proto = None;
    let mut tunnel_id = None;
    let mut metadata = None;
    let mut eth_type: Option<u16> = None;
    let mut mpls: Option<u32> = None;
    let mut udp = false;
    let mut sport = None;
    let mut dport = None;
    while body.remaining() >= 4 {
        let class = body.u16()?;
        let fh = body.u8()?;
        let len = body.u8()? as usize;
        let field = fh >> 1;
        if class != OXM_CLASS_BASIC {
            body.skip(len)?;
            continue;
        }
        match field {
            OXM_IN_PORT => m = m.with_in_port(PortId(body.u32()? as u16)),
            OXM_ETH_TYPE => eth_type = Some(body.u16()?),
            OXM_MPLS_LABEL => mpls = Some(body.u32()?),
            OXM_IPV4_SRC => m = m.with_src(IpAddr(body.u32()?)),
            OXM_IPV4_DST => m = m.with_dst(IpAddr(body.u32()?)),
            OXM_IP_PROTO => {
                proto = match body.u8()? {
                    6 => Some(Protocol::Tcp),
                    17 => {
                        udp = true;
                        Some(Protocol::Udp)
                    }
                    1 => Some(Protocol::Icmp),
                    _ => None,
                }
            }
            OXM_TCP_SRC => sport = Some(body.u16()?),
            OXM_TCP_DST => dport = Some(body.u16()?),
            OXM_UDP_SRC => {
                udp = true;
                sport = Some(body.u16()?);
            }
            OXM_UDP_DST => {
                udp = true;
                dport = Some(body.u16()?);
            }
            OXM_TUNNEL_ID => tunnel_id = Some(TunnelId(body.u64()? as u32)),
            OXM_METADATA => metadata = Some(body.u64()?),
            _ => body.skip(len)?,
        }
    }
    if udp && proto.is_none() {
        proto = Some(Protocol::Udp);
    }
    if let Some(p) = proto {
        m = m.with_proto(p);
    }
    if let Some(p) = sport {
        m = m.with_sport(p);
    }
    if let Some(p) = dport {
        m = m.with_dport(p);
    }
    match (eth_type, mpls) {
        (Some(ETH_TYPE_MPLS), Some(v)) => m = m.with_top_label(Some(mpls_to_label(v))),
        (Some(ETH_TYPE_IPV4), _) => m = m.with_top_label(None),
        _ => {}
    }
    // Consume the 8-byte padding of the whole match.
    let pad = (8 - (mlen % 8)) % 8;
    r.skip(pad)?;
    Ok(DecodedMatch {
        matcher: m,
        tunnel_id,
        metadata,
    })
}

// ---------------------------------------------------------------------
// Actions & instructions
// ---------------------------------------------------------------------

fn encode_action(w: &mut Writer, a: &Action) -> Result<(), WireError> {
    match a {
        Action::Output(p) => {
            w.u16(0); // OFPAT_OUTPUT
            w.u16(16);
            w.u32(p.0 as u32);
            w.u16(0xffff); // max_len: no buffer
            w.pad(6);
        }
        Action::ToController => {
            w.u16(0);
            w.u16(16);
            w.u32(OFPP_CONTROLLER);
            w.u16(0xffff);
            w.pad(6);
        }
        Action::Group(GroupId(g)) => {
            w.u16(22); // OFPAT_GROUP
            w.u16(8);
            w.u32(*g);
        }
        Action::PushLabel(l) => {
            // PUSH_MPLS + SET_FIELD(MPLS_LABEL)
            w.u16(19); // OFPAT_PUSH_MPLS
            w.u16(8);
            w.u16(ETH_TYPE_MPLS);
            w.pad(2);
            w.u16(25); // OFPAT_SET_FIELD
            w.u16(16);
            oxm_header(w, OXM_MPLS_LABEL, 4);
            w.u32(label_to_mpls(*l)?);
            w.pad(4);
        }
        Action::PopLabel => {
            w.u16(20); // OFPAT_POP_MPLS
            w.u16(8);
            w.u16(ETH_TYPE_IPV4);
            w.pad(2);
        }
        Action::Drop => {
            // OpenFlow has no drop action: dropping is an *empty* action
            // list, handled by the callers.
            return Err(WireError::NotRepresentable("explicit drop action"));
        }
    }
    Ok(())
}

/// Encode an action list, folding `Drop` into the empty list.
fn encode_action_list(w: &mut Writer, actions: &[Action]) -> Result<(), WireError> {
    if actions == [Action::Drop] {
        return Ok(());
    }
    for a in actions {
        encode_action(w, a)?;
    }
    Ok(())
}

fn decode_action_list(r: &mut Reader, total: usize) -> Result<Vec<Action>, WireError> {
    let mut body = Reader::new(r.take(total)?);
    let mut actions = Vec::new();
    let mut pending_push = false;
    while body.remaining() >= 4 {
        let atype = body.u16()?;
        let alen = body.u16()? as usize;
        if alen < 4 {
            return Err(WireError::Malformed("action length"));
        }
        let mut inner = Reader::new(body.take(alen - 4)?);
        match atype {
            0 => {
                let port = inner.u32()?;
                if port == OFPP_CONTROLLER {
                    actions.push(Action::ToController);
                } else {
                    actions.push(Action::Output(PortId(port as u16)));
                }
            }
            22 => actions.push(Action::Group(GroupId(inner.u32()?))),
            19 => pending_push = true, // PUSH_MPLS; label arrives in SET_FIELD
            20 => actions.push(Action::PopLabel),
            25 => {
                // SET_FIELD
                let _class = inner.u16()?;
                let fh = inner.u8()?;
                let _len = inner.u8()?;
                if fh >> 1 == OXM_MPLS_LABEL {
                    let v = inner.u32()?;
                    if pending_push {
                        actions.push(Action::PushLabel(mpls_to_label(v)));
                        pending_push = false;
                    }
                }
            }
            _ => {}
        }
    }
    if actions.is_empty() {
        actions.push(Action::Drop);
    }
    Ok(actions)
}

/// Encode a rule's instruction set: APPLY_ACTIONS (omitted when the
/// list is empty) then GOTO_TABLE (when set).
fn encode_instructions(w: &mut Writer, entry: &FlowRule) -> Result<(), WireError> {
    if !entry.apply.is_empty() {
        w.u16(4); // OFPIT_APPLY_ACTIONS
        let len_at = w.buf.len();
        w.u16(0);
        w.pad(4);
        let start = w.buf.len();
        encode_action_list(w, &entry.apply)?;
        let alen = w.buf.len() - start;
        w.patch_u16(len_at, (alen + 8) as u16);
    }
    if let Some(t) = entry.goto {
        w.u16(1); // OFPIT_GOTO_TABLE
        w.u16(8);
        w.u8(t.0);
        w.pad(3);
    }
    Ok(())
}

/// Decode an instruction set into the entry's apply list and goto table.
/// Each instruction is read within its declared length; OpenFlow 1.3
/// allows at most one instruction of each type per entry, and the model
/// holds at most [`ActionList::CAPACITY`] applied actions.
fn decode_instructions(r: &mut Reader) -> Result<(ActionList, Option<TableId>), WireError> {
    let mut apply: Option<ActionList> = None;
    let mut goto: Option<TableId> = None;
    while r.remaining() >= 4 {
        let itype = r.u16()?;
        let ilen = r.u16()? as usize;
        if ilen < 4 {
            return Err(WireError::Malformed("instruction length"));
        }
        let mut body = Reader::new(r.take(ilen - 4)?);
        match itype {
            1 => {
                if ilen != 8 {
                    return Err(WireError::Malformed("goto-table instruction length"));
                }
                if goto.is_some() {
                    return Err(WireError::Malformed("duplicate goto-table instruction"));
                }
                goto = Some(TableId(body.u8()?));
            }
            4 => {
                if ilen < 8 {
                    return Err(WireError::Malformed("apply-actions instruction length"));
                }
                if apply.is_some() {
                    return Err(WireError::Malformed("duplicate apply-actions instruction"));
                }
                body.skip(4)?;
                let actions = decode_action_list(&mut body, ilen - 8)?;
                if actions.len() > ActionList::CAPACITY {
                    return Err(WireError::Malformed("apply-actions longer than 4 actions"));
                }
                apply = Some(ActionList::from_slice(&actions));
            }
            _ => {}
        }
    }
    Ok((apply.unwrap_or_default(), goto))
}

// ---------------------------------------------------------------------
// Packet bytes (Ethernet / MPLS / IPv4 / TCP|UDP)
// ---------------------------------------------------------------------

/// Serialize a simulated packet to wire bytes.
pub fn encode_packet(p: &Packet) -> Result<Vec<u8>, WireError> {
    let mut w = Writer::new();
    // Ethernet: zero MACs; ethertype depends on label stack.
    w.pad(12);
    if p.labels.is_empty() {
        w.u16(ETH_TYPE_IPV4);
    } else {
        w.u16(ETH_TYPE_MPLS);
        // Top of stack first on the wire.
        for (i, l) in p.labels.iter().rev().enumerate() {
            let v = label_to_mpls(l)?;
            let bottom = (i == p.labels.len() - 1) as u32;
            w.u32((v << 12) | (bottom << 8) | 64);
        }
    }
    // IPv4 header (20 bytes, no options).
    let l4_len = 20u16; // tcp/udp header (udp padded for simplicity)
    w.u8(0x45);
    w.u8(0);
    w.u16(20 + l4_len);
    w.u16(p.seq as u16); // identification: carries the sequence number
    w.u16(0);
    w.u8(64); // ttl
    w.u8(p.key.proto.number());
    w.u16(0); // checksum (not computed in the simulator)
    w.u32(p.key.src.0);
    w.u32(p.key.dst.0);
    // TCP-shaped L4 header (UDP uses the same 20-byte layout, padded).
    w.u16(p.key.sport);
    w.u16(p.key.dport);
    w.u32(p.seq);
    w.u32(0); // ack
    w.u8(0x50); // data offset
    w.u8(if p.kind == PacketKind::FlowStart {
        0x02
    } else {
        0x10
    }); // SYN / ACK
    w.u16(0xffff); // window
    w.u16(0); // checksum
    w.u16(0); // urgent
    Ok(w.buf)
}

/// Parse wire bytes back into a simulated packet. `flow_id`, `born_at`
/// and `is_attack` are simulation-side metadata and come back as
/// defaults; `size` is restored from `wire_size` (the original on-wire
/// length, possibly larger than the header bytes).
pub fn decode_packet(buf: &[u8], wire_size: u32) -> Result<Packet, WireError> {
    let mut r = Reader::new(buf);
    r.skip(12)?;
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
    if ethertype != ETH_TYPE_IPV4 {
        return Err(WireError::Malformed("ethertype"));
    }
    let vihl = r.u8()?;
    if vihl != 0x45 {
        return Err(WireError::Malformed("ipv4 header"));
    }
    r.skip(1)?;
    let _tot = r.u16()?;
    let _ident = r.u16()?;
    r.skip(2)?;
    r.skip(1)?; // ttl
    let proto = r.u8()?;
    r.skip(2)?;
    let src = IpAddr(r.u32()?);
    let dst = IpAddr(r.u32()?);
    let sport = r.u16()?;
    let dport = r.u16()?;
    let seq = r.u32()?;
    r.skip(4)?;
    r.skip(1)?;
    let flags = r.u8()?;
    let proto = match proto {
        6 => Protocol::Tcp,
        17 => Protocol::Udp,
        1 => Protocol::Icmp,
        _ => return Err(WireError::Malformed("ip protocol")),
    };
    let key = FlowKey {
        src,
        dst,
        proto,
        sport,
        dport,
    };
    let kind = if flags & 0x02 != 0 {
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
    Ok(p)
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

fn header(w: &mut Writer, msg_type: u8, xid: u32) -> usize {
    w.u8(OFP_VERSION);
    w.u8(msg_type);
    let len_at = w.buf.len();
    w.u16(0);
    w.u32(xid);
    len_at
}

fn finish(mut w: Writer, len_at: usize) -> Vec<u8> {
    debug_assert!(w.buf.len() <= u16::MAX as usize, "frame exceeds u16 length");
    let total = w.buf.len() as u16;
    w.patch_u16(len_at, total);
    w.buf
}

fn finish_checked(w: Writer, len_at: usize) -> Result<Vec<u8>, WireError> {
    if w.buf.len() > u16::MAX as usize {
        return Err(WireError::NotRepresentable(
            "message exceeds the 64 KiB frame limit; use the segmented multipart encoder",
        ));
    }
    Ok(finish(w, len_at))
}

/// Encode a message with the given transaction id.
pub fn encode_message(msg: &OfMessage, xid: u32) -> Result<Vec<u8>, WireError> {
    let mut w = Writer::new();
    match msg {
        OfMessage::Hello => {
            let at = header(&mut w, OFPT_HELLO, xid);
            // Version bitmap element (type 1): we speak exactly 1.3.
            w.u16(1);
            w.u16(8);
            w.u32(1 << OFP_VERSION);
            finish_checked(w, at)
        }
        OfMessage::FeaturesRequest => {
            let at = header(&mut w, OFPT_FEATURES_REQUEST, xid);
            finish_checked(w, at)
        }
        OfMessage::FeaturesReply(f) => {
            let at = header(&mut w, OFPT_FEATURES_REPLY, xid);
            w.u64(f.datapath_id);
            w.u32(f.n_buffers);
            w.u8(f.n_tables);
            w.u8(0); // auxiliary_id
            w.pad(2);
            w.u32(0x0000_0001 | 0x0000_0008); // capabilities: FLOW_STATS | GROUP_STATS
            w.u32(0); // reserved
            finish_checked(w, at)
        }
        OfMessage::ToSwitch(m) => match m {
            ControllerToSwitch::EchoRequest { nonce } => {
                let at = header(&mut w, OFPT_ECHO_REQUEST, xid);
                w.u64(*nonce);
                finish_checked(w, at)
            }
            ControllerToSwitch::Barrier { xid: bx } => {
                let at = header(&mut w, OFPT_BARRIER_REQUEST, *bx as u32);
                finish_checked(w, at)
            }
            ControllerToSwitch::FlowStatsRequest => {
                let at = header(&mut w, OFPT_MULTIPART_REQUEST, xid);
                w.u16(1); // OFPMP_FLOW
                w.u16(0); // flags
                w.pad(4);
                // ofp_flow_stats_request body
                w.u8(0xff); // table: ALL
                w.pad(3);
                w.u32(0xffff_ffff); // out_port: ANY
                w.u32(0xffff_ffff); // out_group: ANY
                w.pad(4);
                w.u64(0); // cookie
                w.u64(0); // cookie mask
                encode_match(&mut w, &Match::ANY)?;
                finish_checked(w, at)
            }
            ControllerToSwitch::PacketOut { packet, out_port } => {
                let at = header(&mut w, OFPT_PACKET_OUT, xid);
                w.u32(OFP_NO_BUFFER);
                w.u32(OFPP_CONTROLLER); // in_port
                let actions_len_at = w.buf.len();
                w.u16(0);
                w.pad(6);
                let astart = w.buf.len();
                encode_action(&mut w, &Action::Output(*out_port))?;
                let alen = (w.buf.len() - astart) as u16;
                w.patch_u16(actions_len_at, alen);
                let data = encode_packet(packet)?;
                w.bytes(&data);
                finish_checked(w, at)
            }
            ControllerToSwitch::FlowMod { table, command } => {
                let at = header(&mut w, OFPT_FLOW_MOD, xid);
                let (cmd, cookie, cookie_mask, entry): (u8, u64, u64, Option<&FlowRule>) =
                    match command {
                        FlowModCommand::Add(e) => (0, e.cookie, 0, Some(e)),
                        FlowModCommand::DeleteByCookie(c) => (3, *c, u64::MAX, None),
                        FlowModCommand::DeleteAll => (3, 0, 0, None),
                        FlowModCommand::DeleteExact(_) => (4, 0, 0, None),
                    };
                w.u64(cookie);
                w.u64(cookie_mask);
                w.u8(table.0);
                w.u8(cmd);
                let (idle, hard, prio) = match entry {
                    Some(e) => (
                        e.idle_timeout()
                            .map(|d| d.as_nanos() / 1_000_000_000)
                            .unwrap_or(0) as u16,
                        e.hard_timeout()
                            .map(|d| d.as_nanos() / 1_000_000_000)
                            .unwrap_or(0) as u16,
                        e.priority,
                    ),
                    None => (0, 0, 0),
                };
                w.u16(idle);
                w.u16(hard);
                w.u16(prio);
                w.u32(OFP_NO_BUFFER);
                w.u32(0xffff_ffff); // out_port ANY
                w.u32(0xffff_ffff); // out_group ANY
                w.u16(0x0001); // flags: SEND_FLOW_REM
                w.pad(2);
                match command {
                    FlowModCommand::Add(e) => {
                        encode_match(&mut w, &e.matcher)?;
                        encode_instructions(&mut w, e)?;
                    }
                    FlowModCommand::DeleteByCookie(_) | FlowModCommand::DeleteAll => {
                        encode_match(&mut w, &Match::ANY)?;
                    }
                    FlowModCommand::DeleteExact(m) => {
                        encode_match(&mut w, m)?;
                    }
                }
                finish_checked(w, at)
            }
            ControllerToSwitch::GroupMod { group, command } => {
                let at = header(&mut w, OFPT_GROUP_MOD, xid);
                match command {
                    GroupModCommand::Install(entry) => {
                        w.u16(0); // OFPGC_ADD
                        let gtype = match entry.group_type {
                            GroupType::Select => 1u8,
                            GroupType::All => 0u8,
                        };
                        w.u8(gtype);
                        w.u8(0);
                        w.u32(group.0);
                        for b in &entry.buckets {
                            let blen_at = w.buf.len();
                            w.u16(0);
                            w.u16(1); // weight
                            w.u32(0xffff_ffff); // watch_port
                            w.u32(0xffff_ffff); // watch_group
                            w.pad(4);
                            encode_action_list(&mut w, &b.actions)?;
                            let blen = (w.buf.len() - blen_at) as u16;
                            w.patch_u16(blen_at, blen);
                        }
                        finish_checked(w, at)
                    }
                    GroupModCommand::Remove => {
                        w.u16(2); // OFPGC_DELETE
                        w.u8(1);
                        w.u8(0);
                        w.u32(group.0);
                        finish_checked(w, at)
                    }
                    GroupModCommand::SetBucketAlive { .. } => {
                        Err(WireError::NotRepresentable("SetBucketAlive"))
                    }
                }
            }
        },
        OfMessage::FromSwitch(m) => match m {
            SwitchToController::EchoReply { nonce } => {
                let at = header(&mut w, OFPT_ECHO_REPLY, xid);
                w.u64(*nonce);
                finish_checked(w, at)
            }
            SwitchToController::BarrierReply { xid: bx } => {
                let at = header(&mut w, OFPT_BARRIER_REPLY, *bx as u32);
                finish_checked(w, at)
            }
            SwitchToController::Error { kind } => {
                let at = header(&mut w, OFPT_ERROR, xid);
                w.u16(5); // OFPET_FLOW_MOD_FAILED
                w.u16(match kind {
                    OfError::TableFull => 1,       // OFPFMFC_TABLE_FULL
                    OfError::FlowModOverload => 0, // OFPFMFC_UNKNOWN
                });
                finish_checked(w, at)
            }
            SwitchToController::PacketIn {
                packet,
                in_port,
                reason,
                via_tunnel,
                ingress_label,
            } => {
                let at = header(&mut w, OFPT_PACKET_IN, xid);
                let data = encode_packet(packet)?;
                w.u32(OFP_NO_BUFFER);
                w.u16(data.len() as u16);
                w.u8(match reason {
                    PacketInReason::NoMatch => 0,
                    PacketInReason::Action => 1,
                });
                w.u8(0); // table_id
                w.u64(0); // cookie
                          // Match carrying IN_PORT + §5.2 metadata OXMs.
                let mstart = w.buf.len();
                w.u16(1);
                let mlen_at = w.buf.len();
                w.u16(0);
                oxm_header(&mut w, OXM_IN_PORT, 4);
                w.u32(in_port.0 as u32);
                if let Some(t) = via_tunnel {
                    oxm_header(&mut w, OXM_TUNNEL_ID, 8);
                    w.u64(t.0 as u64);
                }
                if let Some(l) = ingress_label {
                    oxm_header(&mut w, OXM_METADATA, 8);
                    w.u64(*l as u64);
                }
                let mlen = (w.buf.len() - mstart) as u16;
                w.patch_u16(mlen_at, mlen);
                let pad = (8 - (mlen as usize % 8)) % 8;
                w.pad(pad);
                w.pad(2);
                w.bytes(&data);
                finish_checked(w, at)
            }
            SwitchToController::FlowRemoved {
                table,
                matcher,
                cookie,
                packet_count,
                byte_count,
            } => {
                let at = header(&mut w, OFPT_FLOW_REMOVED, xid);
                w.u64(*cookie);
                w.u16(0); // priority (not tracked in the notification)
                w.u8(0); // reason: idle timeout
                w.u8(table.0);
                w.u32(0); // duration_sec
                w.u32(0); // duration_nsec
                w.u16(0); // idle_timeout
                w.u16(0); // hard_timeout
                w.u64(*packet_count);
                w.u64(*byte_count);
                encode_match(&mut w, matcher)?;
                finish_checked(w, at)
            }
            SwitchToController::FlowStatsReply { stats } => {
                let at = header(&mut w, OFPT_MULTIPART_REPLY, xid);
                w.u16(1); // OFPMP_FLOW
                w.u16(0);
                w.pad(4);
                for st in stats {
                    let elen_at = w.buf.len();
                    w.u16(0);
                    w.u8(st.table.0);
                    w.u8(0);
                    let secs = st.duration.as_nanos() / 1_000_000_000;
                    let nsec = (st.duration.as_nanos() % 1_000_000_000) as u32;
                    w.u32(secs as u32);
                    w.u32(nsec);
                    w.u16(0); // priority
                    w.u16(0); // idle
                    w.u16(0); // hard
                    w.u16(0); // flags
                    w.pad(4);
                    w.u64(st.cookie);
                    w.u64(st.packet_count);
                    w.u64(st.byte_count);
                    encode_match(&mut w, &st.matcher)?;
                    let elen = (w.buf.len() - elen_at) as u16;
                    w.patch_u16(elen_at, elen);
                }
                finish_checked(w, at)
            }
        },
    }
}

/// Decode one message; returns it plus the header transaction id.
pub fn decode_message(buf: &[u8]) -> Result<(OfMessage, u32), WireError> {
    let mut r = Reader::new(buf);
    let version = r.u8()?;
    if version != OFP_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let msg_type = r.u8()?;
    let total = r.u16()? as usize;
    if total > buf.len() {
        return Err(WireError::Truncated);
    }
    let xid = r.u32()?;
    let msg = match msg_type {
        OFPT_HELLO => OfMessage::Hello,
        OFPT_FEATURES_REQUEST => OfMessage::FeaturesRequest,
        OFPT_FEATURES_REPLY => {
            let datapath_id = r.u64()?;
            let n_buffers = r.u32()?;
            let n_tables = r.u8()?;
            OfMessage::FeaturesReply(Features {
                datapath_id,
                n_buffers,
                n_tables,
            })
        }
        OFPT_ECHO_REQUEST => {
            OfMessage::ToSwitch(ControllerToSwitch::EchoRequest { nonce: r.u64()? })
        }
        OFPT_ECHO_REPLY => OfMessage::FromSwitch(SwitchToController::EchoReply { nonce: r.u64()? }),
        OFPT_BARRIER_REQUEST => {
            OfMessage::ToSwitch(ControllerToSwitch::Barrier { xid: xid as u64 })
        }
        OFPT_BARRIER_REPLY => {
            OfMessage::FromSwitch(SwitchToController::BarrierReply { xid: xid as u64 })
        }
        OFPT_ERROR => {
            let _etype = r.u16()?;
            let code = r.u16()?;
            OfMessage::FromSwitch(SwitchToController::Error {
                kind: if code == 1 {
                    OfError::TableFull
                } else {
                    OfError::FlowModOverload
                },
            })
        }
        OFPT_PACKET_OUT => {
            let _buffer = r.u32()?;
            let _in_port = r.u32()?;
            let alen = r.u16()? as usize;
            r.skip(6)?;
            let actions = decode_action_list(&mut r, alen)?;
            let out_port = actions
                .iter()
                .find_map(|a| match a {
                    Action::Output(p) => Some(*p),
                    _ => None,
                })
                .ok_or(WireError::Malformed("packet-out without output"))?;
            let data = r.take(r.remaining())?;
            let packet = decode_packet(data, data.len() as u32)?;
            OfMessage::ToSwitch(ControllerToSwitch::PacketOut { packet, out_port })
        }
        OFPT_FLOW_MOD => {
            let cookie = r.u64()?;
            let cookie_mask = r.u64()?;
            let table = TableId(r.u8()?);
            let cmd = r.u8()?;
            let idle = r.u16()?;
            let hard = r.u16()?;
            let priority = r.u16()?;
            r.skip(4 + 4 + 4 + 2 + 2)?;
            let dm = decode_match(&mut r)?;
            match cmd {
                0 => {
                    let (apply, goto) = decode_instructions(&mut r)?;
                    let mut e = FlowRule::apply(dm.matcher, priority, &apply).with_cookie(cookie);
                    e.goto = goto;
                    if idle > 0 {
                        e = e.with_idle_timeout(SimDuration::from_secs(idle as u64));
                    }
                    if hard > 0 {
                        e = e.with_hard_timeout(SimDuration::from_secs(hard as u64));
                    }
                    OfMessage::ToSwitch(ControllerToSwitch::FlowMod {
                        table,
                        command: FlowModCommand::Add(e),
                    })
                }
                3 => {
                    if cookie_mask != 0 {
                        OfMessage::ToSwitch(ControllerToSwitch::FlowMod {
                            table,
                            command: FlowModCommand::DeleteByCookie(cookie),
                        })
                    } else {
                        // Non-strict delete with an empty match: delete all.
                        OfMessage::ToSwitch(ControllerToSwitch::FlowMod {
                            table,
                            command: FlowModCommand::DeleteAll,
                        })
                    }
                }
                4 => OfMessage::ToSwitch(ControllerToSwitch::FlowMod {
                    table,
                    command: FlowModCommand::DeleteExact(dm.matcher),
                }),
                _ => return Err(WireError::UnsupportedType(cmd)),
            }
        }
        OFPT_GROUP_MOD => {
            let cmd = r.u16()?;
            let gtype = r.u8()?;
            r.skip(1)?;
            let group = GroupId(r.u32()?);
            match cmd {
                0 | 1 => {
                    let mut buckets = Vec::new();
                    while r.remaining() >= 16 {
                        let blen = r.u16()? as usize;
                        r.skip(2 + 4 + 4 + 4)?;
                        if blen < 16 {
                            return Err(WireError::Malformed("bucket length"));
                        }
                        let actions = decode_action_list(&mut r, blen - 16)?;
                        buckets.push(Bucket::new(actions));
                    }
                    let mut entry = GroupEntry::select(SelectionPolicy::FlowHash, buckets);
                    entry.group_type = if gtype == 1 {
                        GroupType::Select
                    } else {
                        GroupType::All
                    };
                    OfMessage::ToSwitch(ControllerToSwitch::GroupMod {
                        group,
                        command: GroupModCommand::Install(entry),
                    })
                }
                2 => OfMessage::ToSwitch(ControllerToSwitch::GroupMod {
                    group,
                    command: GroupModCommand::Remove,
                }),
                _ => return Err(WireError::UnsupportedType(cmd as u8)),
            }
        }
        OFPT_PACKET_IN => {
            let _buffer = r.u32()?;
            let total_len = r.u16()? as u32;
            let reason = match r.u8()? {
                0 => PacketInReason::NoMatch,
                _ => PacketInReason::Action,
            };
            let _table = r.u8()?;
            let _cookie = r.u64()?;
            let dm = decode_match(&mut r)?;
            r.skip(2)?;
            let data = r.take(r.remaining())?;
            let packet = decode_packet(data, total_len.max(data.len() as u32))?;
            OfMessage::FromSwitch(SwitchToController::PacketIn {
                packet,
                in_port: dm.matcher.in_port().unwrap_or(PortId(0)),
                reason,
                via_tunnel: dm.tunnel_id,
                ingress_label: dm.metadata.map(|m| m as u16),
            })
        }
        OFPT_FLOW_REMOVED => {
            let cookie = r.u64()?;
            let _priority = r.u16()?;
            let _reason = r.u8()?;
            let table = TableId(r.u8()?);
            r.skip(4 + 4 + 2 + 2)?;
            let packet_count = r.u64()?;
            let byte_count = r.u64()?;
            let dm = decode_match(&mut r)?;
            OfMessage::FromSwitch(SwitchToController::FlowRemoved {
                table,
                matcher: dm.matcher,
                cookie,
                packet_count,
                byte_count,
            })
        }
        OFPT_MULTIPART_REQUEST => {
            let mp_type = r.u16()?;
            if mp_type != 1 {
                return Err(WireError::UnsupportedType(mp_type as u8));
            }
            OfMessage::ToSwitch(ControllerToSwitch::FlowStatsRequest)
        }
        OFPT_MULTIPART_REPLY => {
            let mp_type = r.u16()?;
            if mp_type != 1 {
                return Err(WireError::UnsupportedType(mp_type as u8));
            }
            r.skip(2 + 4)?;
            let mut stats = Vec::new();
            while r.remaining() >= 48 {
                let estart = r.pos;
                let elen = r.u16()? as usize;
                let table = TableId(r.u8()?);
                r.skip(1)?;
                let secs = r.u32()?;
                let nsec = r.u32()?;
                r.skip(2 + 2 + 2 + 2 + 4)?;
                let cookie = r.u64()?;
                let packet_count = r.u64()?;
                let byte_count = r.u64()?;
                let dm = decode_match(&mut r)?;
                // Skip any instruction bytes within the entry.
                let consumed = r.pos - estart;
                if elen > consumed {
                    r.skip(elen - consumed)?;
                }
                stats.push(FlowStat {
                    table,
                    matcher: dm.matcher,
                    cookie,
                    packet_count,
                    byte_count,
                    duration: SimDuration::from_nanos(secs as u64 * 1_000_000_000 + nsec as u64),
                });
            }
            OfMessage::FromSwitch(SwitchToController::FlowStatsReply { stats })
        }
        other => return Err(WireError::UnsupportedType(other)),
    };
    Ok((msg, xid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key() -> FlowKey {
        FlowKey::tcp(IpAddr::new(10, 0, 0, 1), 1234, IpAddr::new(10, 0, 1, 2), 80)
    }

    fn roundtrip(msg: OfMessage) -> OfMessage {
        let bytes = encode_message(&msg, 42).expect("encode");
        let (decoded, xid) = decode_message(&bytes).expect("decode");
        // Barrier messages carry their own xid; everything else keeps ours.
        match &msg {
            OfMessage::ToSwitch(ControllerToSwitch::Barrier { .. })
            | OfMessage::FromSwitch(SwitchToController::BarrierReply { .. }) => {}
            _ => assert_eq!(xid, 42),
        }
        decoded
    }

    #[test]
    fn header_is_openflow13() {
        let bytes = encode_message(
            &OfMessage::ToSwitch(ControllerToSwitch::EchoRequest { nonce: 7 }),
            0xDEAD_BEEF,
        )
        .unwrap();
        // Golden header: version 0x04, type ECHO_REQUEST(2), len 16, xid.
        assert_eq!(
            &bytes[..8],
            &[0x04, 0x02, 0x00, 0x10, 0xDE, 0xAD, 0xBE, 0xEF]
        );
        assert_eq!(bytes.len(), 16);
    }

    #[test]
    fn echo_roundtrip() {
        match roundtrip(OfMessage::ToSwitch(ControllerToSwitch::EchoRequest {
            nonce: 0x1122_3344_5566_7788,
        })) {
            OfMessage::ToSwitch(ControllerToSwitch::EchoRequest { nonce }) => {
                assert_eq!(nonce, 0x1122_3344_5566_7788)
            }
            other => panic!("{other:?}"),
        }
        match roundtrip(OfMessage::FromSwitch(SwitchToController::EchoReply {
            nonce: 9,
        })) {
            OfMessage::FromSwitch(SwitchToController::EchoReply { nonce: 9 }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn barrier_roundtrip_keeps_xid() {
        match roundtrip(OfMessage::ToSwitch(ControllerToSwitch::Barrier { xid: 77 })) {
            OfMessage::ToSwitch(ControllerToSwitch::Barrier { xid: 77 }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_codes_roundtrip() {
        for kind in [OfError::TableFull, OfError::FlowModOverload] {
            match roundtrip(OfMessage::FromSwitch(SwitchToController::Error { kind })) {
                OfMessage::FromSwitch(SwitchToController::Error { kind: k }) => {
                    assert_eq!(k, kind)
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn flow_mod_add_roundtrip() {
        let entry = FlowRule::apply(
            Match::exact(key()).with_in_port(PortId(3)),
            100,
            &[
                Action::PushLabel(Label::Tunnel(TunnelId(12))),
                Action::Output(PortId(7)),
            ],
        )
        .with_goto(TableId(1))
        .with_cookie(0xABCD)
        .with_idle_timeout(SimDuration::from_secs(10));
        let msg = OfMessage::ToSwitch(ControllerToSwitch::FlowMod {
            table: TableId(0),
            command: FlowModCommand::Add(entry.clone()),
        });
        match roundtrip(msg) {
            OfMessage::ToSwitch(ControllerToSwitch::FlowMod {
                table,
                command: FlowModCommand::Add(e),
            }) => {
                assert_eq!(table, TableId(0));
                assert_eq!(e.matcher, entry.matcher);
                assert_eq!(e.priority, 100);
                assert_eq!(e.cookie, 0xABCD);
                assert_eq!(e.idle_timeout(), Some(SimDuration::from_secs(10)));
                assert_eq!(e.apply, entry.apply);
                assert_eq!(e.goto, Some(TableId(1)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn flow_mod_deletes_roundtrip() {
        match roundtrip(OfMessage::ToSwitch(ControllerToSwitch::FlowMod {
            table: TableId(1),
            command: FlowModCommand::DeleteByCookie(99),
        })) {
            OfMessage::ToSwitch(ControllerToSwitch::FlowMod {
                command: FlowModCommand::DeleteByCookie(99),
                ..
            }) => {}
            other => panic!("{other:?}"),
        }
        let m = Match::src_dst(key().src, key().dst);
        match roundtrip(OfMessage::ToSwitch(ControllerToSwitch::FlowMod {
            table: TableId(0),
            command: FlowModCommand::DeleteExact(m),
        })) {
            OfMessage::ToSwitch(ControllerToSwitch::FlowMod {
                command: FlowModCommand::DeleteExact(got),
                ..
            }) => assert_eq!(got, m),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn drop_rule_roundtrips_as_empty_action_list() {
        let entry = FlowRule::apply(Match::ANY, 1, &[Action::Drop]);
        match roundtrip(OfMessage::ToSwitch(ControllerToSwitch::FlowMod {
            table: TableId(0),
            command: FlowModCommand::Add(entry),
        })) {
            OfMessage::ToSwitch(ControllerToSwitch::FlowMod {
                command: FlowModCommand::Add(e),
                ..
            }) => {
                assert_eq!(e.apply, ActionList::from_slice(&[Action::Drop]));
                assert_eq!(e.goto, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn goto_only_rule_roundtrips_without_actions() {
        let entry = FlowRule::apply(Match::ANY, 1, &[]).with_goto(TableId(1));
        match roundtrip(OfMessage::ToSwitch(ControllerToSwitch::FlowMod {
            table: TableId(0),
            command: FlowModCommand::Add(entry),
        })) {
            OfMessage::ToSwitch(ControllerToSwitch::FlowMod {
                command: FlowModCommand::Add(e),
                ..
            }) => {
                assert!(e.apply.is_empty());
                assert_eq!(e.goto, Some(TableId(1)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn short_apply_actions_instruction_is_malformed() {
        // APPLY_ACTIONS declaring 6 bytes (< its 8-byte header), followed
        // by more bytes: once underflowed `ilen - 8`.
        let bytes = [0, 4, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(matches!(
            decode_instructions(&mut Reader::new(&bytes)),
            Err(WireError::Malformed(_))
        ));
        for ilen in 4..8u8 {
            let bytes = [0, 4, 0, ilen, 0, 0, 0, 0, 0, 0, 0, 0];
            assert!(matches!(
                decode_instructions(&mut Reader::new(&bytes)),
                Err(WireError::Malformed(_))
            ));
        }
    }

    #[test]
    fn oversized_goto_table_instruction_is_malformed() {
        // GOTO_TABLE declaring 16 bytes: the trailing APPLY_ACTIONS header
        // lies inside it and must not decode as a phantom `Apply([Drop])`.
        let bytes = [0, 1, 0, 16, 1, 0, 0, 0, 0, 4, 0, 8, 0, 0, 0, 0];
        assert!(matches!(
            decode_instructions(&mut Reader::new(&bytes)),
            Err(WireError::Malformed(_))
        ));
        // The well-formed pair decodes to exactly a goto plus a drop.
        let bytes = [0, 1, 0, 8, 1, 0, 0, 0, 0, 4, 0, 8, 0, 0, 0, 0];
        let (apply, goto) = decode_instructions(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(goto, Some(TableId(1)));
        assert_eq!(apply, ActionList::from_slice(&[Action::Drop]));
    }

    #[test]
    fn duplicate_instructions_are_malformed() {
        let goto = [0, 1, 0, 8, 1, 0, 0, 0];
        let bytes: Vec<u8> = goto.iter().chain(goto.iter()).copied().collect();
        assert!(matches!(
            decode_instructions(&mut Reader::new(&bytes)),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn apply_actions_beyond_capacity_is_an_error() {
        // Five OUTPUT actions (16 bytes each) under one APPLY_ACTIONS.
        let mut w = Writer::new();
        w.u16(4);
        w.u16(8 + 5 * 16);
        w.pad(4);
        for p in 0..5 {
            encode_action(&mut w, &Action::Output(PortId(p))).unwrap();
        }
        assert!(matches!(
            decode_instructions(&mut Reader::new(&w.buf)),
            Err(WireError::Malformed(_))
        ));
        // Four fit.
        let mut w = Writer::new();
        w.u16(4);
        w.u16(8 + 4 * 16);
        w.pad(4);
        for p in 0..4 {
            encode_action(&mut w, &Action::Output(PortId(p))).unwrap();
        }
        let (apply, _) = decode_instructions(&mut Reader::new(&w.buf)).unwrap();
        assert_eq!(apply.len(), 4);
    }

    #[test]
    fn group_mod_roundtrip() {
        let entry = GroupEntry::select(
            SelectionPolicy::FlowHash,
            vec![
                Bucket::new(vec![
                    Action::PushLabel(Label::Tunnel(TunnelId(3))),
                    Action::Output(PortId(2)),
                ]),
                Bucket::new(vec![Action::Output(PortId(4))]),
            ],
        );
        match roundtrip(OfMessage::ToSwitch(ControllerToSwitch::GroupMod {
            group: GroupId(5),
            command: GroupModCommand::Install(entry),
        })) {
            OfMessage::ToSwitch(ControllerToSwitch::GroupMod {
                group,
                command: GroupModCommand::Install(e),
            }) => {
                assert_eq!(group, GroupId(5));
                assert_eq!(e.group_type, GroupType::Select);
                assert_eq!(e.buckets.len(), 2);
                assert_eq!(
                    e.buckets[0].actions,
                    vec![
                        Action::PushLabel(Label::Tunnel(TunnelId(3))),
                        Action::Output(PortId(2))
                    ]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn set_bucket_alive_is_not_representable() {
        let err = encode_message(
            &OfMessage::ToSwitch(ControllerToSwitch::GroupMod {
                group: GroupId(1),
                command: GroupModCommand::SetBucketAlive {
                    bucket: 0,
                    alive: false,
                },
            }),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, WireError::NotRepresentable(_)));
    }

    #[test]
    fn packet_in_roundtrip_with_scotch_metadata() {
        let mut p = Packet::flow_start(key(), FlowId(5), SimTime::from_secs(1));
        p.push_label(Label::IngressPort(4));
        let msg = OfMessage::FromSwitch(SwitchToController::PacketIn {
            packet: p,
            in_port: PortId(9),
            reason: PacketInReason::NoMatch,
            via_tunnel: Some(TunnelId(77)),
            ingress_label: Some(4),
        });
        match roundtrip(msg) {
            OfMessage::FromSwitch(SwitchToController::PacketIn {
                packet,
                in_port,
                reason,
                via_tunnel,
                ingress_label,
            }) => {
                assert_eq!(in_port, PortId(9));
                assert_eq!(reason, PacketInReason::NoMatch);
                assert_eq!(via_tunnel, Some(TunnelId(77)));
                assert_eq!(ingress_label, Some(4));
                // Protocol-visible packet fields survive.
                assert_eq!(packet.key, p.key);
                assert_eq!(packet.kind, PacketKind::FlowStart);
                assert_eq!(packet.labels, p.labels);
                // Simulation metadata does not (documented).
                assert_eq!(packet.flow_id, FlowId(0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn packet_out_roundtrip() {
        let p = Packet::data(key(), FlowId(1), SimTime::ZERO, 17, 200);
        match roundtrip(OfMessage::ToSwitch(ControllerToSwitch::PacketOut {
            packet: p,
            out_port: PortId(6),
        })) {
            OfMessage::ToSwitch(ControllerToSwitch::PacketOut { packet, out_port }) => {
                assert_eq!(out_port, PortId(6));
                assert_eq!(packet.key, p.key);
                assert_eq!(packet.seq, 17);
                assert_eq!(packet.kind, PacketKind::Data);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn flow_stats_roundtrip() {
        let stats = vec![
            FlowStat {
                table: TableId(0),
                matcher: Match::src_dst(key().src, key().dst),
                cookie: 11,
                packet_count: 1000,
                byte_count: 64000,
                duration: SimDuration::from_millis(2500),
            },
            FlowStat {
                table: TableId(1),
                matcher: Match::ANY,
                cookie: 12,
                packet_count: 5,
                byte_count: 320,
                duration: SimDuration::from_secs(9),
            },
        ];
        match roundtrip(OfMessage::FromSwitch(SwitchToController::FlowStatsReply {
            stats: stats.clone(),
        })) {
            OfMessage::FromSwitch(SwitchToController::FlowStatsReply { stats: got }) => {
                assert_eq!(got.len(), 2);
                assert_eq!(got[0].cookie, 11);
                assert_eq!(got[0].packet_count, 1000);
                assert_eq!(got[0].matcher, stats[0].matcher);
                assert_eq!(got[0].duration, stats[0].duration);
                assert_eq!(got[1].matcher, Match::ANY);
            }
            other => panic!("{other:?}"),
        }
        match roundtrip(OfMessage::ToSwitch(ControllerToSwitch::FlowStatsRequest)) {
            OfMessage::ToSwitch(ControllerToSwitch::FlowStatsRequest) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn flow_removed_roundtrip() {
        match roundtrip(OfMessage::FromSwitch(SwitchToController::FlowRemoved {
            table: TableId(1),
            matcher: Match::exact(key()),
            cookie: 0xFEED,
            packet_count: 44,
            byte_count: 4096,
        })) {
            OfMessage::FromSwitch(SwitchToController::FlowRemoved {
                table,
                matcher,
                cookie,
                packet_count,
                byte_count,
            }) => {
                assert_eq!(table, TableId(1));
                assert_eq!(matcher, Match::exact(key()));
                assert_eq!(cookie, 0xFEED);
                assert_eq!((packet_count, byte_count), (44, 4096));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_wrong_version_and_truncation() {
        let mut bytes = encode_message(
            &OfMessage::ToSwitch(ControllerToSwitch::EchoRequest { nonce: 1 }),
            1,
        )
        .unwrap();
        let mut bad = bytes.clone();
        bad[0] = 0x01; // OpenFlow 1.0
        assert!(matches!(
            decode_message(&bad),
            Err(WireError::BadVersion(0x01))
        ));
        bytes.truncate(10);
        assert!(matches!(decode_message(&bytes), Err(WireError::Truncated)));
        assert!(decode_message(&[]).is_err());
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
        assert!(label_to_mpls(Label::Tunnel(TunnelId(1 << 19))).is_err());
    }

    #[test]
    fn packet_bytes_roundtrip_with_label_stack() {
        let mut p = Packet::flow_start(key(), FlowId(3), SimTime::ZERO).with_size(500);
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

    proptest! {
        /// Arbitrary matches survive the OXM roundtrip.
        #[test]
        fn prop_match_roundtrip(
            in_port in proptest::option::of(0u16..48),
            src in proptest::option::of(0u32..u32::MAX),
            dst in proptest::option::of(0u32..u32::MAX),
            proto_sel in 0u8..4,
            sport in proptest::option::of(0u16..u16::MAX),
            dport in proptest::option::of(0u16..u16::MAX),
            label_sel in 0u8..4,
            tunnel in 0u32..(1 << 19),
        ) {
            let proto = match proto_sel {
                0 => None,
                1 => Some(Protocol::Tcp),
                2 => Some(Protocol::Udp),
                _ => Some(Protocol::Icmp),
            };
            let top_label = match label_sel {
                0 => None,
                1 => Some(None),
                2 => Some(Some(Label::Tunnel(TunnelId(tunnel)))),
                _ => Some(Some(Label::IngressPort(tunnel as u16))),
            };
            let mut m = Match::ANY;
            if let Some(p) = in_port {
                m = m.with_in_port(PortId(p));
            }
            if let Some(ip) = src {
                m = m.with_src(IpAddr(ip));
            }
            if let Some(ip) = dst {
                m = m.with_dst(IpAddr(ip));
            }
            if let Some(p) = proto {
                m = m.with_proto(p);
            }
            if let Some(p) = sport {
                m = m.with_sport(p);
            }
            if let Some(p) = dport {
                m = m.with_dport(p);
            }
            if let Some(l) = top_label {
                m = m.with_top_label(l);
            }
            // ICMP matches with ports are not meaningful on the wire (the
            // codec encodes ports as TCP fields); skip that corner.
            prop_assume!(!(proto == Some(Protocol::Icmp) && (sport.is_some() || dport.is_some())));
            let entry = FlowRule::apply(m, 5, &[Action::Output(PortId(1))]);
            let bytes = encode_message(
                &OfMessage::ToSwitch(ControllerToSwitch::FlowMod {
                    table: TableId(0),
                    command: FlowModCommand::Add(entry),
                }),
                7,
            ).unwrap();
            let (decoded, _) = decode_message(&bytes).unwrap();
            let OfMessage::ToSwitch(ControllerToSwitch::FlowMod {
                command: FlowModCommand::Add(e),
                ..
            }) = decoded else { panic!() };
            // Ports of an unset protocol go on the wire as TCP fields and
            // decode with the protocol still unset.
            prop_assert_eq!(e.matcher, m);
        }

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

/// Incremental frame splitter for a TCP byte stream carrying OpenFlow
/// messages.
///
/// Feed arbitrary chunks with [`FrameReader::extend`]; pull complete
/// messages with [`FrameReader::next_message`]. Framing uses the header's
/// length field, so partial reads and coalesced messages are both handled
/// — the two realities of reading OpenFlow off a socket.
#[derive(Debug, Clone, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Append bytes received from the stream.
    pub fn extend(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Try to decode the next complete message.
    ///
    /// * `Ok(Some(..))` — one message decoded and consumed.
    /// * `Ok(None)` — not enough bytes yet.
    /// * `Err(..)` — the stream is corrupt (bad version / length); the
    ///   offending frame is consumed so the caller may resynchronize or
    ///   drop the connection.
    pub fn next_message(&mut self) -> Result<Option<(OfMessage, u32)>, WireError> {
        if self.buf.len() < 8 {
            return Ok(None);
        }
        let total = u16::from_be_bytes([self.buf[2], self.buf[3]]) as usize;
        if total < 8 {
            self.buf.clear();
            return Err(WireError::Malformed("header length"));
        }
        if self.buf.len() < total {
            return Ok(None);
        }
        let frame: Vec<u8> = self.buf.drain(..total).collect();
        decode_message(&frame).map(Some)
    }
}

#[cfg(test)]
mod frame_tests {
    use super::*;

    fn echo(nonce: u64) -> Vec<u8> {
        encode_message(
            &OfMessage::ToSwitch(ControllerToSwitch::EchoRequest { nonce }),
            nonce as u32,
        )
        .unwrap()
    }

    #[test]
    fn coalesced_messages_split() {
        let mut stream = Vec::new();
        for n in 0..5u64 {
            stream.extend(echo(n));
        }
        let mut r = FrameReader::new();
        r.extend(&stream);
        for n in 0..5u64 {
            match r.next_message().unwrap().unwrap() {
                (OfMessage::ToSwitch(ControllerToSwitch::EchoRequest { nonce }), _) => {
                    assert_eq!(nonce, n)
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(r.next_message().unwrap().is_none());
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn byte_at_a_time_reassembly() {
        let bytes = echo(42);
        let mut r = FrameReader::new();
        for (i, b) in bytes.iter().enumerate() {
            r.extend(&[*b]);
            let got = r.next_message().unwrap();
            if i + 1 < bytes.len() {
                assert!(got.is_none(), "premature decode at byte {i}");
            } else {
                assert!(got.is_some());
            }
        }
    }

    #[test]
    fn corrupt_length_errors_and_clears() {
        let mut bytes = echo(1);
        bytes[2] = 0;
        bytes[3] = 4; // length 4 < header size
        let mut r = FrameReader::new();
        r.extend(&bytes);
        assert!(r.next_message().is_err());
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn bad_version_consumes_the_frame_only() {
        let mut bad = echo(1);
        bad[0] = 0x01;
        let good = echo(7);
        let mut r = FrameReader::new();
        r.extend(&bad);
        r.extend(&good);
        assert!(matches!(r.next_message(), Err(WireError::BadVersion(1))));
        // The next frame still decodes.
        match r.next_message().unwrap().unwrap() {
            (OfMessage::ToSwitch(ControllerToSwitch::EchoRequest { nonce: 7 }), _) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn large_flow_mod_survives_fragmented_delivery() {
        let entry = FlowRule::apply(
            Match::exact(FlowKey::tcp(
                IpAddr::new(1, 2, 3, 4),
                5,
                IpAddr::new(6, 7, 8, 9),
                10,
            )),
            9,
            &[Action::Output(PortId(3)), Action::push_tunnel(TunnelId(2))],
        );
        let bytes = encode_message(
            &OfMessage::ToSwitch(ControllerToSwitch::FlowMod {
                table: TableId(1),
                command: FlowModCommand::Add(entry),
            }),
            3,
        )
        .unwrap();
        let mut r = FrameReader::new();
        let mid = bytes.len() / 2;
        r.extend(&bytes[..mid]);
        assert!(r.next_message().unwrap().is_none());
        r.extend(&bytes[mid..]);
        assert!(matches!(
            r.next_message().unwrap().unwrap().0,
            OfMessage::ToSwitch(ControllerToSwitch::FlowMod { .. })
        ));
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The decoder never panics on arbitrary bytes — it returns an
        /// error or a message, but a malformed peer must not crash the
        /// controller.
        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_message(&bytes);
        }

        /// Same for the framed stream reader, fed arbitrary chunks.
        #[test]
        fn prop_frame_reader_never_panics(
            chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..8),
        ) {
            let mut r = FrameReader::new();
            for c in chunks {
                r.extend(&c);
                // Drain until it stalls or errors; must terminate.
                for _ in 0..16 {
                    match r.next_message() {
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        Err(_) => break,
                    }
                }
            }
        }

        /// Valid frames prefixed with garbage headers error cleanly.
        #[test]
        fn prop_decode_bad_version(v in 0u8..=255) {
            prop_assume!(v != OFP_VERSION);
            let mut bytes = encode_message(
                &OfMessage::ToSwitch(ControllerToSwitch::EchoRequest { nonce: 1 }),
                9,
            ).unwrap();
            bytes[0] = v;
            prop_assert!(matches!(decode_message(&bytes), Err(WireError::BadVersion(got)) if got == v));
        }
    }
}

#[cfg(test)]
mod handshake_tests {
    use super::*;

    /// The standard connection bootstrap: HELLO exchange, then
    /// FEATURES_REQUEST/REPLY — exactly what a Scotch controller would do
    /// against a real switch, run through the framed stream reader.
    #[test]
    fn hello_features_handshake_over_a_stream() {
        let mut to_switch = Vec::new();
        to_switch.extend(encode_message(&OfMessage::Hello, 1).unwrap());
        to_switch.extend(encode_message(&OfMessage::FeaturesRequest, 2).unwrap());

        // Switch side parses the stream...
        let mut sw = FrameReader::new();
        sw.extend(&to_switch);
        assert!(matches!(
            sw.next_message().unwrap().unwrap(),
            (OfMessage::Hello, 1)
        ));
        assert!(matches!(
            sw.next_message().unwrap().unwrap(),
            (OfMessage::FeaturesRequest, 2)
        ));

        // ...and answers.
        let feats = Features {
            datapath_id: 0xCAFE,
            n_buffers: 256,
            n_tables: 2,
        };
        let mut to_ctrl = Vec::new();
        to_ctrl.extend(encode_message(&OfMessage::Hello, 1).unwrap());
        to_ctrl.extend(encode_message(&OfMessage::FeaturesReply(feats), 2).unwrap());
        let mut ctl = FrameReader::new();
        ctl.extend(&to_ctrl);
        assert!(matches!(
            ctl.next_message().unwrap().unwrap(),
            (OfMessage::Hello, 1)
        ));
        match ctl.next_message().unwrap().unwrap() {
            (OfMessage::FeaturesReply(f), 2) => assert_eq!(f, feats),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hello_carries_the_13_version_bitmap() {
        let bytes = encode_message(&OfMessage::Hello, 0).unwrap();
        assert_eq!(bytes[1], 0); // OFPT_HELLO
                                 // Bitmap element: type 1, len 8, bit for version 4 set.
        let bitmap = u32::from_be_bytes(bytes[12..16].try_into().unwrap());
        assert_ne!(bitmap & (1 << 4), 0);
    }
}

/// Encode a flow-stats reply as one or more multipart segments, none
/// exceeding the 64 KiB frame limit. Segments before the last carry the
/// `OFPMPF_REPLY_MORE` flag, per spec.
pub fn encode_flow_stats_segmented(
    stats: &[FlowStat],
    xid: u32,
) -> Result<Vec<Vec<u8>>, WireError> {
    // Worst-case bytes per entry: fixed 48 + match (≤ 48 with padding).
    const BUDGET: usize = 60_000;
    const PER_ENTRY: usize = 96;
    let per_segment = (BUDGET / PER_ENTRY).max(1);
    let chunks: Vec<&[FlowStat]> = if stats.is_empty() {
        vec![&[][..]]
    } else {
        stats.chunks(per_segment).collect()
    };
    let n = chunks.len();
    let mut out = Vec::with_capacity(n);
    for (i, chunk) in chunks.into_iter().enumerate() {
        let more = i + 1 < n;
        let mut w = Writer::new();
        let at = header(&mut w, OFPT_MULTIPART_REPLY, xid);
        w.u16(1); // OFPMP_FLOW
        w.u16(if more { 0x0001 } else { 0 }); // OFPMPF_REPLY_MORE
        w.pad(4);
        for st in chunk {
            let elen_at = w.buf.len();
            w.u16(0);
            w.u8(st.table.0);
            w.u8(0);
            let secs = st.duration.as_nanos() / 1_000_000_000;
            let nsec = (st.duration.as_nanos() % 1_000_000_000) as u32;
            w.u32(secs as u32);
            w.u32(nsec);
            w.u16(0);
            w.u16(0);
            w.u16(0);
            w.u16(0);
            w.pad(4);
            w.u64(st.cookie);
            w.u64(st.packet_count);
            w.u64(st.byte_count);
            encode_match(&mut w, &st.matcher)?;
            let elen = (w.buf.len() - elen_at) as u16;
            w.patch_u16(elen_at, elen);
        }
        out.push(finish_checked(w, at)?);
    }
    Ok(out)
}

/// Reassembles segmented multipart flow-stats replies (`REPLY_MORE`
/// chains) into complete stat lists.
#[derive(Debug, Clone, Default)]
pub struct MultipartAssembler {
    pending: Vec<FlowStat>,
}

impl MultipartAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        MultipartAssembler::default()
    }

    /// Feed one multipart-reply frame. Returns the complete stats once the
    /// final (no-MORE) segment arrives, `None` while parts are pending.
    pub fn feed(&mut self, frame: &[u8]) -> Result<Option<Vec<FlowStat>>, WireError> {
        if frame.len() < 12 || frame[1] != OFPT_MULTIPART_REPLY {
            return Err(WireError::Malformed("not a multipart reply"));
        }
        let more = u16::from_be_bytes([frame[10], frame[11]]) & 0x0001 != 0;
        match decode_message(frame)? {
            (OfMessage::FromSwitch(SwitchToController::FlowStatsReply { stats }), _) => {
                self.pending.extend(stats);
                if more {
                    Ok(None)
                } else {
                    Ok(Some(std::mem::take(&mut self.pending)))
                }
            }
            _ => Err(WireError::Malformed("unexpected multipart type")),
        }
    }
}

#[cfg(test)]
mod multipart_tests {
    use super::*;

    fn stats(n: usize) -> Vec<FlowStat> {
        (0..n)
            .map(|i| FlowStat {
                table: TableId(0),
                matcher: Match::src_dst(IpAddr(i as u32), IpAddr::new(9, 9, 9, 9)),
                cookie: i as u64,
                packet_count: i as u64 * 10,
                byte_count: i as u64 * 1000,
                duration: SimDuration::from_millis(i as u64),
            })
            .collect()
    }

    #[test]
    fn oversized_reply_is_rejected_by_the_plain_encoder() {
        let big = stats(2000);
        let err = encode_message(
            &OfMessage::FromSwitch(SwitchToController::FlowStatsReply { stats: big }),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, WireError::NotRepresentable(_)));
    }

    #[test]
    fn segmented_roundtrip_reassembles_everything() {
        let all = stats(2000);
        let frames = encode_flow_stats_segmented(&all, 7).unwrap();
        assert!(frames.len() > 1, "2000 entries must segment");
        for f in &frames {
            assert!(f.len() <= u16::MAX as usize);
        }
        let mut asm = MultipartAssembler::new();
        let mut got = None;
        for (i, f) in frames.iter().enumerate() {
            let r = asm.feed(f).unwrap();
            if i + 1 < frames.len() {
                assert!(r.is_none(), "MORE segments must not complete");
            } else {
                got = r;
            }
        }
        let got = got.expect("final segment completes");
        assert_eq!(got.len(), all.len());
        assert_eq!(got[0].cookie, 0);
        assert_eq!(got.last().unwrap().cookie, 1999);
        assert_eq!(got[1500].matcher, all[1500].matcher);
    }

    #[test]
    fn small_reply_is_a_single_unflagged_segment() {
        let frames = encode_flow_stats_segmented(&stats(3), 1).unwrap();
        assert_eq!(frames.len(), 1);
        let flags = u16::from_be_bytes([frames[0][10], frames[0][11]]);
        assert_eq!(flags & 1, 0);
        let mut asm = MultipartAssembler::new();
        assert_eq!(asm.feed(&frames[0]).unwrap().unwrap().len(), 3);
    }

    #[test]
    fn empty_reply_still_produces_one_frame() {
        let frames = encode_flow_stats_segmented(&[], 1).unwrap();
        assert_eq!(frames.len(), 1);
        let mut asm = MultipartAssembler::new();
        assert_eq!(asm.feed(&frames[0]).unwrap().unwrap().len(), 0);
    }

    #[test]
    fn assembler_rejects_non_multipart() {
        let echo = encode_message(
            &OfMessage::ToSwitch(ControllerToSwitch::EchoRequest { nonce: 1 }),
            1,
        )
        .unwrap();
        let mut asm = MultipartAssembler::new();
        assert!(asm.feed(&echo).is_err());
    }
}
