//! # pcm-sim — a superstep-oriented parallel machine simulator
//!
//! This crate provides the execution substrate for the reproduction of
//! Juurlink & Wijshoff (SPAA'96): a simulated distributed-memory machine
//! with `P` virtual processors that execute *supersteps* — local
//! computation, followed by message exchange, followed by a barrier — the
//! program structure all of the paper's models (BSP, MP-BSP, MP-BPRAM,
//! E-BSP) share.
//!
//! The crate is machine-agnostic: the actual MasPar MP-1, Parsytec GCel and
//! CM-5 personalities live in `pcm-machines` and plug in through the
//! [`NetworkModel`] and [`ComputeModel`] traits. What this crate fixes is
//! the *semantics*:
//!
//! * algorithms really execute (messages carry real data; results can be
//!   checked against sequential references), and
//! * simulated time advances by `max_p(local compute) + route(pattern)` per
//!   superstep, where `route` sees the full ordered communication pattern —
//!   including the per-processor *send order* that distinguishes staggered
//!   from naive schedules.
//!
//! How a superstep executes is a strategy that never moves a bit: the
//! per-processor closures fan out across the rayon shim's pool on big
//! machines, and the exchange that prices and delivers their messages is
//! always one sequential fused sweep ([`Machine`]).

pub mod cache;
pub mod compute;
pub mod ctx;
pub mod inbox;
pub mod machine;
pub mod message;
pub mod network;
pub mod pattern;
pub mod probe;
pub mod shadow;
pub mod step;
pub mod strategy;
pub mod topology;

pub use cache::{CacheStats, PricingCache};
pub use compute::{ComputeModel, UniformCompute};
pub use ctx::Ctx;
pub use inbox::{Inbox, InboxIter};
pub use machine::Machine;
pub use message::{Message, MsgKind, Payload, ProcId, Values, INLINE_PAYLOAD, MAX_POOLED_PAYLOAD};
pub use network::{IdealNetwork, NetTerms, NetworkModel, TextbookBspNetwork};
pub use pattern::{BlockRoundView, CommPattern, PatternScratch, SegmentView};
pub use probe::{
    collect_traces, with_dry_probe, with_probe, ExchangePath, Needs, PhaseNanos, RunEnd,
    StepDetail, StepObs, SuperstepProbe,
};
pub use shadow::{ConsumeFilter, RegionId, SendMeta, ShadowEvent};
pub use step::{RunBreakdown, SuperstepTrace};
pub use strategy::{map_ordered, with_sequential};
