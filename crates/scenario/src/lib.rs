//! # dsv-scenario — the declarative scenario IR
//!
//! Every experiment in this repository is one shape: sources and sinks,
//! traffic conditioners (EF policers/shapers, AF meters), a topology, and
//! measurement taps. This crate makes that shape **data**: a serializable
//! [`ScenarioSpec`] names its nodes and wires them with links, queue
//! disciplines, conditioner tables (with named fault taps) and audit
//! bounds; [`compile()`] lowers a spec onto `dsv-net`'s `NetworkBuilder`
//! with name-based node resolution, so experiment code never touches a
//! raw `NodeId` and can never break when creation order changes.
//!
//! ## Determinism
//!
//! The compiler is a pure function of the spec (plus the [`ClipStore`]
//! resolving media references): builder calls happen in spec declaration
//! order, the scenario RNG forks at each stochastic app in node order,
//! and two compiles of one spec produce byte-identical simulations. The
//! spec's canonical JSON ([`ScenarioSpec::canonical_json`]) is therefore
//! a faithful content address for a run's entire topology, which is what
//! the sweep runner's cache keys on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod canonical;
pub mod compile;
pub mod spec;

pub use canonical::{canonicalize, flow_counterparts, Canonical};
pub use compile::{
    compile, BoxConditioner, ClipStore, CompileError, CompileOptions, CompiledScenario,
};
pub use spec::{
    ActionSpec, AppSpec, BoundSpec, ClipId2, CodecSpec, ConditionerSpec, CrossTrafficSpec,
    DscpSpec, LimitsSpec, LinkParams, LinkSpec, MatchSpec, MediaRef, NodeSpec, ProtoSpec,
    QdiscSpec, RuleSpec, ScenarioSpec, TransportSpec,
};
