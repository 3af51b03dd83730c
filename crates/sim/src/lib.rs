#![warn(missing_docs)]

//! # scotch-sim
//!
//! Deterministic discrete-event simulation (DES) engine underpinning the
//! Scotch reproduction.
//!
//! The paper's evaluation runs on a hardware testbed (Pica8 / HP switches,
//! Open vSwitch hosts, a Ryu controller). This crate provides the substrate
//! that replaces that testbed: a single-threaded, seeded, bit-reproducible
//! event engine plus the measurement instruments (`metrics`) and rate models
//! (`rate`) shared by every simulated component.
//!
//! Design follows the event-driven, no-inversion-of-control style of
//! `smoltcp`: components are plain state machines; the composition root owns
//! the [`EventQueue`] and routes outputs between components.
//!
//! ## Determinism
//!
//! * All randomness flows through [`rng::SimRng`], seeded from a `u64`.
//! * Event ties at equal timestamps are broken by a monotonically increasing
//!   sequence number, so pop order is a pure function of push order.

pub mod event;
pub mod fault;
pub mod hash;
pub mod journey;
pub mod metrics;
pub mod rate;
pub mod registry;
pub mod rng;
pub mod time;
pub mod trace;

pub use event::EventQueue;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FAULT_KIND_COUNT, FAULT_KIND_NAMES};
pub use hash::{FxHashMap, FxHashSet};
pub use journey::{
    JourneyConfig, JourneyMark, JourneyPoint, JourneyRecorder, JourneyView, LatencyDecomposition,
    Span, Stage,
};
pub use registry::{DispatchProfiler, MetricsRegistry, MetricsSnapshot, ProfileEntry};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceCategory, TraceConfig, TraceEvent, TraceLevel, TraceRecord, TraceRecorder};
