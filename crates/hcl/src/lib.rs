//! Highway cover labelling (Definitions 3.2–3.4 of the BatchHL paper).
//!
//! A highway cover labelling `Γ = (H, L)` consists of
//!
//! * a **highway** `H = (R, δ_H)`: a set of landmarks `R` together with
//!   their exact pairwise distances, and
//! * a **distance labelling** `L`: per vertex `v`, entries `(r, d_G(r, v))`
//!   for exactly those landmarks `r` such that *no* shortest path between
//!   `r` and `v` passes through another landmark (the unique *minimal*
//!   labelling — Definition 3.4 and \[17]).
//!
//! Unlike a 2-hop cover (full) labelling, this is a *partial* labelling:
//! it answers landmark–vertex distances exactly (Eq. 2) and provides an
//! upper bound `d⊤` for arbitrary pairs (Eq. 3) that a distance-bounded
//! bidirectional BFS on the landmark-free subgraph `G[V \ R]` turns into
//! an exact answer (Section 4).
//!
//! Modules:
//!
//! * [`labelling`] — storage (landmark-major label rows + highway
//!   matrix) and the `d^L` landmark-distance oracle,
//! * [`landmarks`] — landmark-selection strategies,
//! * [`packed`] — the packed vertex-major query mirror: per-vertex
//!   label rows with ascending landmark ids and width-narrowed
//!   distances (u8/u16 tiers, u32 escape), plus the width-narrowed
//!   highway matrix,
//! * [`kernel`] — SIMD min-plus kernels (SSE2/AVX2 with runtime
//!   detection, branch-free scalar default) serving the Eq. 3 scans,
//! * [`build`] — construction by one multi-source flagged BFS per wave
//!   of up to 64 landmarks (u64 landmark masks per vertex), waves split
//!   over threads,
//! * [`query`] — the one Section 4 query path (point query,
//!   one-to-many, top-k), generic over a [`LabelView`] and a bounded
//!   search and shared by every index family and what-if session,
//! * [`patch`] — scoped label patches and the merged view what-if
//!   sessions query through,
//! * [`store`] — the generation-based shared label store: immutable
//!   published snapshots, lock-free reader handles, atomic-swap
//!   publication (the substrate of concurrent query serving),
//! * [`oracle`] — brute-force reference implementations used by tests.

pub mod build;
pub mod kernel;
pub mod labelling;
pub mod landmarks;
pub mod oracle;
pub mod packed;
pub mod patch;
pub mod query;
pub mod serde_io;
pub mod store;

pub use build::{build_labelling, build_labelling_parallel};
pub use kernel::{active_kernel, Kernel};
pub use labelling::{LabelError, Labelling, NO_LABEL};
pub use landmarks::LandmarkSelection;
pub use packed::{PackedHighway, PackedIndex, PackedLabels};
pub use patch::{LabelPatch, PatchRow, PatchedLabels};
pub use query::{sweep_min_targets, LabelView, QueryEngine, SourcePlan, SWEEP_MIN_TARGETS};
pub use serde_io::SnapshotError;
pub use store::{LabelStore, ReaderHandle, Versioned};
