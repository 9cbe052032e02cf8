//! Shadow-model differential oracle and adversarial fuzzer.
//!
//! The cycle-level simulator in `bear-core` is judged by an untimed,
//! obviously-correct functional model running in lockstep: every
//! per-access decision the cycle model makes (L3/L4 hit classification,
//! presence-bit state, bypass legality, writeback probe skips, byte
//! accounting) is re-derived by the [`shadow::Shadow`] from the
//! observation event stream and any disagreement is reported as a typed
//! [`bear_sim::error::SimError::Divergence`] carrying both models' views.
//!
//! On top of the oracle sits a deterministic adversarial fuzzer
//! ([`fuzz`]): seeded pattern generators aim set-conflict storms,
//! dirty-eviction floods, duel-set thrashing, and NTC neighbor aliasing
//! at the hierarchy; diverging traces are automatically minimized by
//! delta debugging ([`shrink`](mod@shrink)) and written out as self-contained repro
//! files ([`repro`]).
//!
//! DESIGN.md ("Oracle & divergence protocol") documents the check
//! inventory and the deliberately-unmodeled corners; EXPERIMENTS.md
//! covers the repro-file workflow.

#![warn(missing_docs)]

pub mod audit;
pub mod counts;
pub mod fuzz;
pub mod lockstep;
pub mod pools;
pub mod repro;
pub mod shadow;
pub mod shrink;

pub use counts::EventCounts;
pub use fuzz::{
    campaign_cases, quick_config, run_campaign, run_case, run_trace, run_trace_traced, trace_for,
    CampaignReport, FeatureSet, FuzzCase, ALL_DESIGNS,
};
pub use lockstep::{run_lockstep, run_lockstep_traced, DivergenceContext, LockstepReport};
pub use repro::Repro;
pub use shadow::Shadow;
pub use shrink::{shrink, Shrunk};
