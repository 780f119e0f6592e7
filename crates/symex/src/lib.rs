//! # symex — backwards witness-refutation search
//!
//! The core contribution of *Thresher: Precise Refutations for Heap
//! Reachability* (PLDI 2013): a goal-directed, backwards symbolic execution
//! that refines a flow-insensitive points-to analysis with flow-, context-,
//! and path-sensitivity on demand.
//!
//! Given a may points-to edge deemed feasible by the up-front analysis, the
//! [`Engine`] searches for a *path program witness* — an over-approximate
//! path program ending in a state where the edge holds. A failed search is a
//! sound refutation of the edge; a successful one yields a [`Witness`]
//! usable for triage.
//!
//! The distinctive pieces, each mapped to the paper:
//! - **mixed symbolic-explicit queries** ([`Query`]): symbolic values carry
//!   `from` instance constraints ([`Region`]) that are narrowed as values
//!   flow backwards, deriving contradictions long before allocation sites
//!   (§2.2);
//! - **strong updates** in the backwards transfer functions of Figure 4,
//!   including the produced/not-produced case split for heap writes;
//! - **loop invariant inference** over heap constraints with a
//!   materialization bound and path-constraint widening (§3.3);
//! - **query simplification**: history-based subsumption at procedure
//!   boundaries and loop heads (§3.3);
//! - **ablation modes** ([`Representation`], [`LoopMode`],
//!   [`SymexConfig::simplification`]) reproducing the §4 experiments.
//!
//! ```
//! use pta::{analyze, ContextPolicy, HeapEdge, ModRef};
//! use symex::{Engine, SymexConfig};
//!
//! let program = tir::parse(r#"
//! global G: Object;
//! fn main() {
//!   var o: Object;
//!   var s: Object;
//!   o = new Object @obj0;
//!   s = new Object @str0;
//!   $G = s;
//! }
//! entry main;
//! "#)?;
//! let pta = analyze(&program, ContextPolicy::Insensitive);
//! let modref = ModRef::compute(&program, &pta);
//! let mut engine = Engine::new(&program, &pta, &modref, SymexConfig::default());
//!
//! // $G can only hold str0; the edge to str0 is witnessed...
//! let g = program.global_by_name("G").unwrap();
//! let str0 = pta.locs().ids().find(|&l| pta.loc_name(&program, l) == "str0").unwrap();
//! assert!(engine.refute_edge(&HeapEdge::Global { global: g, target: str0 }).is_witnessed());
//! # Ok::<(), tir::ParseError>(())
//! ```

#![warn(missing_docs)]

mod config;
mod engine;
mod key;
mod loops;
pub mod parallel;
pub mod persist;
mod query;
mod region;
pub mod replay;
mod simplify;
mod stats;
mod transfer;
mod value;
mod vecmap;

pub use config::{LoopMode, Representation, SymexConfig};
pub use engine::{EdgeDecision, Engine};
pub use key::{DerefSite, RefKey};
pub use parallel::{
    default_jobs, EdgeAnswer, JobVerdict, ReachJob, RefutationScheduler, SchedulerOutcome, Tally,
};
pub use persist::{
    CacheMode, DecisionStore, Fingerprinter, MethodHashCache, PersistedDecision, StoreLimits,
};
pub use query::{HeapCell, Query, Refuted};
pub use region::Region;
pub use replay::{validate_witness, ReplayVerdict};
pub use stats::{AbortCounts, RefutationCounts, SearchOutcome, SearchStats, StopReason, Witness};
pub use value::{SymId, Val};
