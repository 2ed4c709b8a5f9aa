//! # BatchHL — batch-dynamic highway cover labelling
//!
//! The primary contribution of *"BatchHL: Answering Distance Queries on
//! Batch-Dynamic Networks at Scale"* (SIGMOD 2022): maintain the unique
//! minimal highway cover labelling of a graph under **batches** of edge
//! insertions and deletions, in two phases per landmark (Algorithm 1):
//!
//! 1. **Batch search** finds a superset of the vertices whose label or
//!    landmark distance is affected by the batch — either the basic
//!    unified search (Algorithm 2, [`search`]) or the improved search
//!    with landmark-length pruning (Algorithm 3, [`search_improved`]);
//! 2. **Batch repair** (Algorithm 4, [`repair`]) recomputes the affected
//!    labels from the boundary of unaffected vertices inward, restoring
//!    correctness *and minimality* (Theorem 5.21).
//!
//! The public entry point is [`index::BatchIndex`] (undirected) and
//! [`directed::DirectedBatchIndex`] (Section 6), configured by
//! [`index::IndexConfig`] with an [`index::Algorithm`] variant:
//!
//! | Variant | Paper name | Meaning |
//! |---------|-----------|---------|
//! | [`Algorithm::Bhl`] | BHL | basic batch search + batch repair |
//! | [`Algorithm::BhlPlus`] | BHL⁺ | improved batch search + batch repair |
//! | [`Algorithm::BhlS`] | BHLₛ | deletions and insertions as separate sub-batches |
//! | [`Algorithm::Uhl`] | UHL | one update at a time, basic search |
//! | [`Algorithm::UhlPlus`] | UHL⁺ | one update at a time, improved search |
//!
//! Setting `threads > 1` in the config runs search + repair with
//! landmark-level parallelism (BHLₚ, Section 6): label rows of distinct
//! landmarks are disjoint, so threads share nothing but read-only state.
//!
//! # Architecture: generations, readers and the unified engine
//!
//! Serving distance queries *at scale* means queries must not contend
//! with `apply_batch`. The crate is built around two ideas:
//!
//! **Generations.** Every index owns a mutable *working snapshot*
//! (graph + labelling) and a [`batchhl_hcl::LabelStore`] of published,
//! immutable generations. `apply_batch` plays Algorithm 1 against that
//! split: the published generation is the read-only old labelling `Γ`,
//! the working snapshot is repaired in place into `Γ′`, and a single
//! atomic swap publishes it. The retired generation's buffers are
//! recycled when no reader holds them (`Arc::try_unwrap`), with only
//! the affected entries re-synced — `O(affected + batch)` per pass, the
//! same asymptotics the paper's in-place variant has.
//!
//! **Readers.** [`BatchIndex::reader`] (and the directed/weighted
//! counterparts) returns a `Send + Sync` [`reader::Reader`]: a handle
//! that pins a generation and answers queries lock-free against it,
//! re-pinning with one atomic version check when the writer publishes.
//! A reader never sees a half-applied batch; pinned readers can serve a
//! consistent stale view for as long as they need it.
//!
//! **One engine.** The per-landmark search→repair orchestration —
//! sequential or landmark-parallel — is implemented once in
//! [`engine`], generic over an [`engine::UpdateKernel`] describing the
//! search space: BFS over an adjacency view (undirected, and both
//! directions of the directed index through the generic `Reversed`
//! adapter) or Dijkstra over a weighted adjacency view. The undirected,
//! directed and weighted indexes are thin compositions of the store,
//! the engine and their query path; the weighted index inherits
//! landmark-parallel updates from the shared engine.
//!
//! **CSR snapshot views.** Every generation carries, next to the
//! dynamic writer graph, a frozen CSR view of it
//! ([`batchhl_graph::csr`]): flat `offsets`/`neighbors` arrays plus the
//! per-batch delta overlay of the vertices recent batches touched.
//! All traversal hot paths — reader queries, the owner query path, the
//! update kernels' landmark searches and repair relaxations, and full
//! construction — run over that view, turning the per-vertex pointer
//! chase of `Vec<Vec<_>>` adjacency into sequential array scans.
//! `apply_batch` freezes only the batch's endpoints into the overlay
//! (`O(Σ deg(endpoint))`) and compacts into a fresh base CSR when the
//! overlay crosses the configured [`index::CompactionPolicy`] (the
//! `compaction` field of [`index::IndexConfig`], shared by every index
//! family); consecutive generations share the base behind an `Arc`.
//! [`index::BatchIndex::new_reordered`] additionally renumbers vertices
//! by decreasing degree at construction so hub neighbourhoods pack into
//! the front of the CSR arrays.
//!
//! ```
//! use batchhl_core::index::{Algorithm, BatchIndex, IndexConfig};
//! use batchhl_graph::{generators, Batch};
//!
//! let g = generators::barabasi_albert(500, 3, 42);
//! let mut index = BatchIndex::build(g, IndexConfig::default());
//! let d0 = index.query(3, 77);
//!
//! let mut batch = Batch::new();
//! batch.insert(3, 77); // arbitrary mix of insertions/deletions
//! let stats = index.apply_batch(&batch);
//! assert!(stats.applied >= 1);
//! assert_eq!(index.query(3, 77), Some(1));
//! # let _ = d0;
//! ```

pub mod admission;
pub mod backend;
pub mod directed;
pub mod engine;
pub mod index;
pub mod paths;
pub mod persist;
pub mod reader;
pub mod repair;
pub mod search;
pub mod search_improved;
pub mod snapshot;
pub mod stats;
pub mod wal;
pub mod weighted;
pub mod whatif;
pub mod workspace;

pub use admission::validate_batch;
pub use backend::{
    build_backend, load_backend, Backend, BackendFamily, BackendReader, Edit, GraphSource,
    OracleError,
};
pub use directed::{DirectedBatchIndex, DirectedSnapshot};
pub use index::{Algorithm, BatchIndex, CompactionPolicy, IndexConfig, IndexSnapshot};
pub use persist::{CheckpointMeta, PersistError};
pub use reader::{DirectedReader, Reader, SharedReader, SnapshotQuery, WeightedReader};
pub use stats::UpdateStats;
pub use wal::{recover_wal, TxnId, WalRecord, WalRecovery, WalWriter};
pub use weighted::{WeightedBatchIndex, WeightedSnapshot};
pub use whatif::{
    DirectedHypothesis, DirectedWhatIf, Hypothesis, Session, SnapshotWhatIf, WeightedHypothesis,
    WeightedWhatIf, WhatIf, WhatIfQuery,
};
