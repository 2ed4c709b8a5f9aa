//! The type-erased backend surface behind the `DistanceOracle` facade.
//!
//! The workspace grows three index families — [`BatchIndex`]
//! (undirected), [`DirectedBatchIndex`] and [`WeightedBatchIndex`] —
//! whose public methods historically mirrored each other call for
//! call. [`Backend`] states that contract *once*: a facade caller
//! picks a family at **runtime** (from the kind of graph it feeds the
//! builder), and everything downstream — queries, batched query plans,
//! the update session, reader handles — goes through `Box<dyn
//! Backend>` with no per-family code.
//!
//! The mutation side is normalized too: every family consumes the same
//! [`Edit`] list, committed as one batch. Unweighted families reject
//! weight-carrying edits with [`OracleError::WeightedEditsUnsupported`]
//! rather than silently dropping the weight.

use crate::directed::DirectedBatchIndex;
use crate::index::{BatchIndex, CompactionPolicy, IndexConfig};
use crate::persist::{self, CheckpointMeta, PersistError};
use crate::reader::SharedReader;
use crate::stats::UpdateStats;
use crate::weighted::WeightedBatchIndex;
use crate::whatif::WhatIfQuery;
use batchhl_common::{Dist, Vertex};
use batchhl_graph::weighted::{Weight, WeightedGraph, WeightedUpdate};
use batchhl_graph::{Batch, DynamicDiGraph, DynamicGraph};
use batchhl_hcl::{LabelError, LabelResidency, LandmarkSelection};
use std::fmt;

/// Which index family a backend (or a graph source) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendFamily {
    /// Unweighted undirected graphs — [`BatchIndex`].
    Undirected,
    /// Unweighted directed graphs — [`DirectedBatchIndex`].
    Directed,
    /// Positively weighted undirected graphs — [`WeightedBatchIndex`].
    Weighted,
}

impl BackendFamily {
    pub fn as_str(self) -> &'static str {
        match self {
            BackendFamily::Undirected => "undirected",
            BackendFamily::Directed => "directed",
            BackendFamily::Weighted => "weighted",
        }
    }
}

impl fmt::Display for BackendFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A graph handed to the oracle builder. The variant decides the
/// backend family; the `From` impls let callers pass any of the three
/// graph types directly.
#[derive(Debug, Clone)]
pub enum GraphSource {
    Undirected(DynamicGraph),
    Directed(DynamicDiGraph),
    Weighted(WeightedGraph),
}

impl GraphSource {
    pub fn family(&self) -> BackendFamily {
        match self {
            GraphSource::Undirected(_) => BackendFamily::Undirected,
            GraphSource::Directed(_) => BackendFamily::Directed,
            GraphSource::Weighted(_) => BackendFamily::Weighted,
        }
    }

    pub fn num_vertices(&self) -> usize {
        match self {
            GraphSource::Undirected(g) => g.num_vertices(),
            GraphSource::Directed(g) => g.num_vertices(),
            GraphSource::Weighted(g) => g.num_vertices(),
        }
    }
}

impl From<DynamicGraph> for GraphSource {
    fn from(g: DynamicGraph) -> Self {
        GraphSource::Undirected(g)
    }
}

impl From<DynamicDiGraph> for GraphSource {
    fn from(g: DynamicDiGraph) -> Self {
        GraphSource::Directed(g)
    }
}

impl From<WeightedGraph> for GraphSource {
    fn from(g: WeightedGraph) -> Self {
        GraphSource::Weighted(g)
    }
}

/// One edit accumulated by an oracle update session. Directed backends
/// read `(a, b)` as the arc `a → b`; undirected backends as the edge
/// `{a, b}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edit {
    /// Add an edge/arc (unit weight on the weighted family).
    Insert(Vertex, Vertex),
    /// Add a weighted edge. Unweighted families accept `w == 1` and
    /// reject anything else.
    InsertWeighted(Vertex, Vertex, Weight),
    /// Remove an edge/arc.
    Remove(Vertex, Vertex),
    /// Change the weight of an existing edge (weighted family only).
    SetWeight(Vertex, Vertex, Weight),
}

/// Why an oracle operation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// The builder's declared family (`directed(..)` / `weighted(..)`)
    /// contradicts the graph source that was handed to `build`.
    SourceMismatch {
        declared: BackendFamily,
        source: BackendFamily,
    },
    /// A weight-carrying edit ([`Edit::SetWeight`], or
    /// [`Edit::InsertWeighted`] with weight ≠ 1) was committed to an
    /// unweighted backend.
    WeightedEditsUnsupported { family: BackendFamily },
    /// The labelling could not be constructed (invalid landmark set).
    Label(LabelError),
    /// The durability layer failed to make a commit durable (e.g. the
    /// write-ahead log could not be appended or synced). The batch was
    /// **not** applied. Carries the rendered [`crate::persist::PersistError`].
    Durability { reason: String },
    /// Batch admission refused the edit list before anything was logged
    /// or applied: `index` is the position of the first offending edit
    /// (see [`crate::admission::validate_batch`] for the rules). The
    /// oracle is untouched.
    InvalidBatch { index: usize, reason: String },
    /// A panic was caught while the batch was being applied. The batch
    /// was rolled back (readers keep the pre-batch generation, a WAL
    /// abort record cancels the logged batch) and the oracle's write
    /// path is poisoned until recovery.
    CommitPanicked { reason: String },
    /// The write path is unavailable after an earlier contained failure;
    /// reads still serve the last good generation. Clear with
    /// `Oracle::recover()` or by re-opening from disk.
    WritesPoisoned { reason: String },
    /// A deep integrity audit found the index inconsistent with the
    /// graph it claims to describe.
    Integrity { reason: String },
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::SourceMismatch { declared, source } => write!(
                f,
                "builder declared a {declared} oracle but the graph source is {source}"
            ),
            OracleError::WeightedEditsUnsupported { family } => write!(
                f,
                "weight-carrying edits are not supported by the {family} backend"
            ),
            OracleError::Label(e) => write!(f, "labelling construction failed: {e}"),
            OracleError::Durability { reason } => {
                write!(f, "commit could not be made durable: {reason}")
            }
            OracleError::InvalidBatch { index, reason } => {
                write!(f, "batch refused at edit {index}: {reason}")
            }
            OracleError::CommitPanicked { reason } => {
                write!(f, "commit panicked and was rolled back: {reason}")
            }
            OracleError::WritesPoisoned { reason } => {
                write!(f, "write path unavailable until recovery: {reason}")
            }
            OracleError::Integrity { reason } => {
                write!(f, "integrity audit failed: {reason}")
            }
        }
    }
}

impl std::error::Error for OracleError {}

impl From<LabelError> for OracleError {
    fn from(e: LabelError) -> Self {
        OracleError::Label(e)
    }
}

/// One batch-dynamic index family, type-erased for the
/// `DistanceOracle` facade.
///
/// Every method takes concrete types only (the trait is object-safe);
/// queries take `&mut self` because the owner answers against its
/// *working* snapshot with a reusable search workspace, while
/// [`Backend::reader`] hands out `&self`-querying [`BackendReader`]
/// handles for serving threads.
///
/// # Adding a fourth backend
///
/// A new family (say, a directed *weighted* index, or an approximate
/// sketch index) plugs in without touching the facade:
///
/// 1. Give the index a snapshot type and implement
///    [`crate::reader::SnapshotQuery`] for it — the three query-plan
///    methods (`snapshot_query_dist`, `snapshot_distances_from`,
///    `snapshot_top_k`) are the whole query surface; the generic
///    machinery (readers, grouped `query_many`, generation pinning)
///    is inherited.
/// 2. Implement `Backend` for the index type, mapping [`Edit`] lists
///    onto its native batch type in `commit_edits` (reject edit kinds
///    the family cannot express with a typed [`OracleError`] instead
///    of dropping them).
/// 3. Return a [`SharedReader`] over the index's `LabelStore` from
///    `reader` — `SharedReader<S>` already implements
///    [`BackendReader`] for any `SnapshotQuery` snapshot.
/// 4. Add a [`GraphSource`] variant (plus a `From` impl) and a match
///    arm in [`build_backend`]; the builder then reaches the new
///    family with no new facade API.
///
/// Invariants expected by the facade: `commit_edits` applies the whole
/// list as **one** batch per the index's configured algorithm
/// (atomicity of the published generation), queries answer against the
/// newest committed state, and `version` increases with every
/// published pass.
pub trait Backend: Send {
    /// Which family this backend is (useful for diagnostics).
    fn family(&self) -> BackendFamily;

    /// Number of vertices in the current working snapshot.
    fn num_vertices(&self) -> usize;

    /// Version of the newest published generation.
    fn version(&self) -> u64;

    /// Logical label entries across the index's labelling(s).
    fn label_entries(&self) -> usize;

    /// Logical labelling size in bytes (Table 4's metric).
    fn label_size_bytes(&self) -> usize;

    /// Resident label memory across the working buffer and every live
    /// generation, each shared page and mirror cell counted once.
    fn label_residency(&self) -> LabelResidency;

    /// Exact distance; `None` when disconnected/unreachable or out of
    /// range. Directed backends answer `d(s → t)`.
    fn query(&mut self, s: Vertex, t: Vertex) -> Option<Dist>;

    /// Batched pair queries (order preserved; pairs sharing a source
    /// reuse one source plan).
    fn query_many(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>>;

    /// One-source-to-many-targets distances (one source plan + at most
    /// one sweep for the whole call).
    fn distances_from(&mut self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>>;

    /// The `k` vertices closest to `s` (excluding `s`), nondecreasing
    /// by distance.
    fn top_k_closest(&mut self, s: Vertex, k: usize) -> Vec<(Vertex, Dist)>;

    /// Out-neighbours of `v` in the current working snapshot (weights
    /// dropped on the weighted family; empty when out of range).
    fn neighbors(&self, v: Vertex) -> Vec<Vertex>;

    /// Degree of `v` (out-degree on directed backends; 0 out of range).
    fn degree(&self, v: Vertex) -> usize;

    /// Apply an accumulated edit list as **one** batch (normalization,
    /// search and repair per the configured algorithm) and publish the
    /// next generation.
    fn commit_edits(&mut self, edits: &[Edit]) -> Result<UpdateStats, OracleError>;

    /// A `Send + Sync` handle with the same query-plan surface, whose
    /// queries take `&self` (interior re-pinning; see
    /// [`SharedReader`]).
    fn reader(&self) -> Box<dyn BackendReader>;

    /// Tune the CSR compaction policy of published views.
    fn set_compaction(&mut self, policy: CompactionPolicy);

    /// Serialize this backend's family body (graph, labelling(s), and
    /// update configuration) for a `BHL2` checkpoint. Callers normally
    /// go through [`crate::persist::write_checkpoint`], which frames the
    /// body with the format header and CRC-32 trailer; the counterpart
    /// [`load_backend`] reads the framed form back.
    fn save(&self, out: &mut dyn std::io::Write) -> Result<(), PersistError>;

    /// Capture a rollback token for the *currently published*
    /// generation. Cheap: the token pins the published `Arc`, whose CSR
    /// base and label buffers are shared across generations.
    ///
    /// The facade captures a token before `commit_edits` and, if the
    /// commit fails or panics mid-way, hands it back to [`restore`] —
    /// which is why it is an opaque `Any` rather than a family-specific
    /// type (the trait must stay object-safe).
    ///
    /// [`restore`]: Backend::restore
    fn rollback_token(&self) -> Box<dyn std::any::Any + Send>;

    /// Restore the backend to the generation captured by a
    /// [`rollback_token`], discarding the (possibly half-applied)
    /// working state and republishing the captured content under a
    /// fresh version number. Errors only if `token` came from a
    /// different backend family.
    ///
    /// [`rollback_token`]: Backend::rollback_token
    fn restore(&mut self, token: Box<dyn std::any::Any + Send>) -> Result<(), OracleError>;

    /// Deep audit of the live index against ground truth:
    /// family-specific structural checks (the labelling must equal the
    /// minimal highway-cover labelling on the unweighted families) plus
    /// `samples` sampled single-source truth sweeps (BFS / Dijkstra)
    /// compared against the index's own answers. Expensive — intended
    /// for operators and tests, not the hot path.
    fn verify_integrity(&mut self, samples: usize) -> Result<(), OracleError>;
}

/// Deterministically sample `k` distinct source vertices for the
/// integrity audit's truth sweeps.
fn audit_sources(n: usize, k: usize) -> Vec<Vertex> {
    let mut order: Vec<Vertex> = (0..n as Vertex).collect();
    batchhl_common::rng::SplitMix64::new(0x5EED_AD17).shuffle(&mut order);
    order.truncate(k);
    order
}

/// Compare one source's truth vector against the index's answers.
fn audit_source<Q: FnMut(Vertex) -> Option<Dist>>(
    s: Vertex,
    truth: &[Dist],
    mut query: Q,
) -> Result<(), OracleError> {
    use batchhl_common::INF;
    for (t, &want) in truth.iter().enumerate() {
        let want = (want != INF).then_some(want);
        let got = query(t as Vertex);
        if got != want {
            return Err(OracleError::Integrity {
                reason: format!("query({s}, {t}) = {got:?}, ground truth says {want:?}"),
            });
        }
    }
    Ok(())
}

/// Deserialize a `BHL2` checkpoint into whichever backend family it
/// holds (the load hook paired with [`Backend::save`]). Also returns
/// the checkpoint's generation metadata — the WAL replay cursor.
pub fn load_backend<R: std::io::Read>(
    r: R,
) -> Result<(Box<dyn Backend>, CheckpointMeta), PersistError> {
    persist::read_checkpoint(r)
}

/// Check an edit list against a family *without* applying anything —
/// the same acceptance rule [`Backend::commit_edits`] enforces. The
/// durability layer calls this before a batch is logged to the
/// write-ahead log, so a batch that would be refused at commit is never
/// made durable (and therefore never replayed).
pub fn edits_supported(family: BackendFamily, edits: &[Edit]) -> Result<(), OracleError> {
    if family == BackendFamily::Weighted {
        return Ok(());
    }
    for &e in edits {
        match e {
            Edit::Insert(..) | Edit::Remove(..) | Edit::InsertWeighted(_, _, 1) => {}
            Edit::InsertWeighted(..) | Edit::SetWeight(..) => {
                return Err(OracleError::WeightedEditsUnsupported { family })
            }
        }
    }
    Ok(())
}

/// The `&self` query surface served to reading threads, type-erased.
/// Obtained from [`Backend::reader`]; clone freely (clones share the
/// underlying generation store and follow the same writer).
pub trait BackendReader: Send + Sync {
    /// Version of the generation the next query will pin.
    fn version(&self) -> u64;

    /// Exact distance on the freshest published generation.
    fn query(&self, s: Vertex, t: Vertex) -> Option<Dist>;

    /// Batched pair queries against one pinned generation.
    fn query_many(&self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>>;

    /// One-source-to-many-targets against one pinned generation.
    fn distances_from(&self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>>;

    /// The `k` closest vertices on the freshest published generation.
    fn top_k_closest(&self, s: Vertex, k: usize) -> Vec<(Vertex, Dist)>;

    /// A speculative session answering queries as if `edits` had been
    /// committed, built over one pinned generation — no generation
    /// bump, no WAL traffic (see [`crate::whatif`]). Errors on edits
    /// the backend family cannot express, mirroring `commit_edits`.
    fn what_if(&self, edits: &[Edit]) -> Result<Box<dyn WhatIfQuery>, OracleError>;

    /// Clone through the trait object.
    fn clone_reader(&self) -> Box<dyn BackendReader>;
}

impl<S> BackendReader for SharedReader<S>
where
    S: crate::whatif::SnapshotWhatIf + Send + Sync + 'static,
{
    fn version(&self) -> u64 {
        SharedReader::version(self)
    }

    fn query(&self, s: Vertex, t: Vertex) -> Option<Dist> {
        SharedReader::query(self, s, t)
    }

    fn query_many(&self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>> {
        SharedReader::query_many(self, pairs)
    }

    fn distances_from(&self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>> {
        SharedReader::distances_from(self, s, targets)
    }

    fn top_k_closest(&self, s: Vertex, k: usize) -> Vec<(Vertex, Dist)> {
        SharedReader::top_k_closest(self, s, k)
    }

    fn what_if(&self, edits: &[Edit]) -> Result<Box<dyn WhatIfQuery>, OracleError> {
        S::what_if_session(self.pin(), edits)
    }

    fn clone_reader(&self) -> Box<dyn BackendReader> {
        Box::new(self.clone())
    }
}

fn foreign_token(family: BackendFamily) -> OracleError {
    OracleError::Integrity {
        reason: format!("rollback token does not belong to the {family} backend"),
    }
}

/// Translate an edit list for the unweighted families; errors on
/// weight-carrying edits instead of dropping the weight. The
/// acceptance rule itself lives in [`edits_supported`] (shared with
/// the durability layer, which must refuse a batch *before* logging
/// it) — this function only adds the translation.
pub(crate) fn unweighted_batch(
    edits: &[Edit],
    family: BackendFamily,
) -> Result<Batch, OracleError> {
    edits_supported(family, edits)?;
    let mut batch = Batch::new();
    for &e in edits {
        match e {
            // `InsertWeighted` passed validation, so its weight is 1.
            Edit::Insert(a, b) | Edit::InsertWeighted(a, b, _) => batch.insert(a, b),
            Edit::Remove(a, b) => batch.delete(a, b),
            Edit::SetWeight(..) => unreachable!("rejected by edits_supported"),
        }
    }
    Ok(batch)
}

impl Backend for BatchIndex {
    fn family(&self) -> BackendFamily {
        BackendFamily::Undirected
    }

    fn num_vertices(&self) -> usize {
        BatchIndex::num_vertices(self)
    }

    fn version(&self) -> u64 {
        BatchIndex::version(self)
    }

    fn label_entries(&self) -> usize {
        self.labelling().size_entries()
    }

    fn label_size_bytes(&self) -> usize {
        self.labelling().size_bytes()
    }

    fn label_residency(&self) -> LabelResidency {
        self.label_residency()
    }

    fn query(&mut self, s: Vertex, t: Vertex) -> Option<Dist> {
        BatchIndex::query(self, s, t)
    }

    fn query_many(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>> {
        BatchIndex::query_many(self, pairs)
    }

    fn distances_from(&mut self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>> {
        BatchIndex::distances_from(self, s, targets)
    }

    fn top_k_closest(&mut self, s: Vertex, k: usize) -> Vec<(Vertex, Dist)> {
        BatchIndex::top_k_closest(self, s, k)
    }

    fn neighbors(&self, v: Vertex) -> Vec<Vertex> {
        if (v as usize) < self.graph().num_vertices() {
            self.graph().neighbors(v).to_vec()
        } else {
            Vec::new()
        }
    }

    fn degree(&self, v: Vertex) -> usize {
        if (v as usize) < self.graph().num_vertices() {
            self.graph().degree(v)
        } else {
            0
        }
    }

    fn commit_edits(&mut self, edits: &[Edit]) -> Result<UpdateStats, OracleError> {
        let batch = unweighted_batch(edits, BackendFamily::Undirected)?;
        Ok(self.apply_batch(&batch))
    }

    fn reader(&self) -> Box<dyn BackendReader> {
        Box::new(self.shared_reader())
    }

    fn set_compaction(&mut self, policy: CompactionPolicy) {
        BatchIndex::set_compaction(self, policy);
    }

    fn save(&self, out: &mut dyn std::io::Write) -> Result<(), PersistError> {
        persist::save_undirected(self, out)
    }

    fn rollback_token(&self) -> Box<dyn std::any::Any + Send> {
        Box::new(self.published())
    }

    fn restore(&mut self, token: Box<dyn std::any::Any + Send>) -> Result<(), OracleError> {
        let snap = token
            .downcast::<std::sync::Arc<batchhl_hcl::Versioned<crate::index::IndexSnapshot>>>()
            .map_err(|_| foreign_token(BackendFamily::Undirected))?;
        self.restore_generation(snap.value());
        Ok(())
    }

    fn verify_integrity(&mut self, samples: usize) -> Result<(), OracleError> {
        BatchIndex::verify(self).map_err(|reason| OracleError::Integrity { reason })?;
        for s in audit_sources(self.num_vertices(), samples) {
            let truth = batchhl_graph::bfs::bfs_distances(self.graph(), s);
            audit_source(s, &truth, |t| BatchIndex::query(self, s, t))?;
        }
        Ok(())
    }
}

impl Backend for DirectedBatchIndex {
    fn family(&self) -> BackendFamily {
        BackendFamily::Directed
    }

    fn num_vertices(&self) -> usize {
        DirectedBatchIndex::num_vertices(self)
    }

    fn version(&self) -> u64 {
        DirectedBatchIndex::version(self)
    }

    fn label_entries(&self) -> usize {
        self.forward_labelling().size_entries() + self.backward_labelling().size_entries()
    }

    fn label_size_bytes(&self) -> usize {
        self.size_bytes()
    }

    fn label_residency(&self) -> LabelResidency {
        self.label_residency()
    }

    fn query(&mut self, s: Vertex, t: Vertex) -> Option<Dist> {
        DirectedBatchIndex::query(self, s, t)
    }

    fn query_many(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>> {
        DirectedBatchIndex::query_many(self, pairs)
    }

    fn distances_from(&mut self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>> {
        DirectedBatchIndex::distances_from(self, s, targets)
    }

    fn top_k_closest(&mut self, s: Vertex, k: usize) -> Vec<(Vertex, Dist)> {
        DirectedBatchIndex::top_k_closest(self, s, k)
    }

    fn neighbors(&self, v: Vertex) -> Vec<Vertex> {
        if (v as usize) < self.graph().num_vertices() {
            self.graph().out_neighbors(v).to_vec()
        } else {
            Vec::new()
        }
    }

    fn degree(&self, v: Vertex) -> usize {
        if (v as usize) < self.graph().num_vertices() {
            self.graph().out_neighbors(v).len()
        } else {
            0
        }
    }

    fn commit_edits(&mut self, edits: &[Edit]) -> Result<UpdateStats, OracleError> {
        let batch = unweighted_batch(edits, BackendFamily::Directed)?;
        Ok(self.apply_batch(&batch))
    }

    fn reader(&self) -> Box<dyn BackendReader> {
        Box::new(self.shared_reader())
    }

    fn set_compaction(&mut self, policy: CompactionPolicy) {
        DirectedBatchIndex::set_compaction(self, policy);
    }

    fn save(&self, out: &mut dyn std::io::Write) -> Result<(), PersistError> {
        persist::save_directed(self, out)
    }

    fn rollback_token(&self) -> Box<dyn std::any::Any + Send> {
        Box::new(self.published())
    }

    fn restore(&mut self, token: Box<dyn std::any::Any + Send>) -> Result<(), OracleError> {
        let snap = token
            .downcast::<std::sync::Arc<batchhl_hcl::Versioned<crate::directed::DirectedSnapshot>>>()
            .map_err(|_| foreign_token(BackendFamily::Directed))?;
        self.restore_generation(snap.value());
        Ok(())
    }

    fn verify_integrity(&mut self, samples: usize) -> Result<(), OracleError> {
        use batchhl_graph::Reversed;
        batchhl_hcl::oracle::check_minimal(self.graph(), self.forward_labelling()).map_err(
            |reason| OracleError::Integrity {
                reason: format!("forward labelling: {reason}"),
            },
        )?;
        batchhl_hcl::oracle::check_minimal(&Reversed(self.graph()), self.backward_labelling())
            .map_err(|reason| OracleError::Integrity {
                reason: format!("backward labelling: {reason}"),
            })?;
        for s in audit_sources(self.num_vertices(), samples) {
            let truth = batchhl_graph::bfs::bfs_distances(self.graph(), s);
            audit_source(s, &truth, |t| DirectedBatchIndex::query(self, s, t))?;
        }
        Ok(())
    }
}

impl Backend for WeightedBatchIndex {
    fn family(&self) -> BackendFamily {
        BackendFamily::Weighted
    }

    fn num_vertices(&self) -> usize {
        WeightedBatchIndex::num_vertices(self)
    }

    fn version(&self) -> u64 {
        WeightedBatchIndex::version(self)
    }

    fn label_entries(&self) -> usize {
        self.labelling().size_entries()
    }

    fn label_size_bytes(&self) -> usize {
        self.labelling().size_bytes()
    }

    fn label_residency(&self) -> LabelResidency {
        self.label_residency()
    }

    fn query(&mut self, s: Vertex, t: Vertex) -> Option<Dist> {
        WeightedBatchIndex::query(self, s, t)
    }

    fn query_many(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>> {
        WeightedBatchIndex::query_many(self, pairs)
    }

    fn distances_from(&mut self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>> {
        WeightedBatchIndex::distances_from(self, s, targets)
    }

    fn top_k_closest(&mut self, s: Vertex, k: usize) -> Vec<(Vertex, Dist)> {
        WeightedBatchIndex::top_k_closest(self, s, k)
    }

    fn neighbors(&self, v: Vertex) -> Vec<Vertex> {
        if (v as usize) < self.graph().num_vertices() {
            self.graph().neighbors(v).iter().map(|&(w, _)| w).collect()
        } else {
            Vec::new()
        }
    }

    fn degree(&self, v: Vertex) -> usize {
        if (v as usize) < self.graph().num_vertices() {
            self.graph().degree(v)
        } else {
            0
        }
    }

    fn commit_edits(&mut self, edits: &[Edit]) -> Result<UpdateStats, OracleError> {
        let updates: Vec<WeightedUpdate> = edits
            .iter()
            .map(|&e| match e {
                Edit::Insert(a, b) => WeightedUpdate::Insert(a, b, 1),
                Edit::InsertWeighted(a, b, w) => WeightedUpdate::Insert(a, b, w),
                Edit::Remove(a, b) => WeightedUpdate::Delete(a, b),
                Edit::SetWeight(a, b, w) => WeightedUpdate::SetWeight(a, b, w),
            })
            .collect();
        Ok(self.apply_batch(&updates))
    }

    fn reader(&self) -> Box<dyn BackendReader> {
        Box::new(self.shared_reader())
    }

    fn set_compaction(&mut self, policy: CompactionPolicy) {
        WeightedBatchIndex::set_compaction(self, policy);
    }

    fn save(&self, out: &mut dyn std::io::Write) -> Result<(), PersistError> {
        persist::save_weighted(self, out)
    }

    fn rollback_token(&self) -> Box<dyn std::any::Any + Send> {
        Box::new(self.published())
    }

    fn restore(&mut self, token: Box<dyn std::any::Any + Send>) -> Result<(), OracleError> {
        let snap = token
            .downcast::<std::sync::Arc<batchhl_hcl::Versioned<crate::weighted::WeightedSnapshot>>>()
            .map_err(|_| foreign_token(BackendFamily::Weighted))?;
        self.restore_generation(snap.value());
        Ok(())
    }

    fn verify_integrity(&mut self, samples: usize) -> Result<(), OracleError> {
        // No minimality audit on the weighted family (the highway-cover
        // minimality characterization is defined for unweighted
        // labellings); sampled Dijkstra truth covers the query surface.
        for s in audit_sources(self.num_vertices(), samples) {
            let truth = batchhl_graph::weighted::dijkstra(self.graph(), s);
            audit_source(s, &truth, |t| WeightedBatchIndex::query(self, s, t))?;
        }
        Ok(())
    }
}

/// Validate a materialized landmark list the way `Labelling::empty`
/// will, without allocating label rows — so the facade surfaces a
/// typed [`OracleError::Label`] instead of the index constructors'
/// panic on a bad user-supplied [`Explicit`] list.
///
/// [`Explicit`]: batchhl_hcl::LandmarkSelection::Explicit
fn validate_landmarks(landmarks: &[Vertex], n: usize) -> Result<(), LabelError> {
    if landmarks.len() >= u16::MAX as usize {
        return Err(LabelError::TooManyLandmarks {
            count: landmarks.len(),
            max: u16::MAX as usize - 1,
        });
    }
    let mut sorted = landmarks.to_vec();
    sorted.sort_unstable();
    for pair in sorted.windows(2) {
        if pair[0] == pair[1] {
            return Err(LabelError::DuplicateLandmark { landmark: pair[0] });
        }
    }
    if let Some(&last) = sorted.last() {
        if (last as usize) >= n {
            return Err(LabelError::LandmarkOutOfBounds {
                landmark: last,
                num_vertices: n,
            });
        }
    }
    Ok(())
}

/// Construct the backend a graph source calls for. The facade's
/// `Oracle::builder()` is the intended entry point; this is the family
/// dispatch it bottoms out in.
pub fn build_backend(
    source: GraphSource,
    config: IndexConfig,
) -> Result<Box<dyn Backend>, OracleError> {
    match source {
        GraphSource::Undirected(g) => {
            let landmarks = config.selection.select(&g);
            validate_landmarks(&landmarks, g.num_vertices())?;
            // Hand the materialized list back so construction does not
            // re-run the selection.
            let config = IndexConfig {
                selection: LandmarkSelection::Explicit(landmarks),
                ..config
            };
            Ok(Box::new(BatchIndex::build(g, config)))
        }
        GraphSource::Directed(g) => {
            let landmarks = config.selection.select_directed(&g);
            validate_landmarks(&landmarks, g.num_vertices())?;
            let config = IndexConfig {
                selection: LandmarkSelection::Explicit(landmarks),
                ..config
            };
            Ok(Box::new(DirectedBatchIndex::build(g, config)))
        }
        GraphSource::Weighted(g) => {
            let landmarks = config.selection.select_weighted(&g);
            let index = WeightedBatchIndex::build_with_landmarks(g, landmarks)?
                .with_threads(config.threads)
                .with_compaction(config.compaction);
            Ok(Box::new(index))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Algorithm;
    use batchhl_graph::generators::path;
    use batchhl_hcl::LandmarkSelection;

    fn small_config() -> IndexConfig {
        IndexConfig {
            selection: LandmarkSelection::TopDegree(2),
            algorithm: Algorithm::BhlPlus,
            ..IndexConfig::default()
        }
    }

    fn backends() -> Vec<Box<dyn Backend>> {
        let mut wg = WeightedGraph::new(6);
        for v in 0..5 {
            wg.insert_edge(v, v + 1, 1);
        }
        let mut dg = DynamicDiGraph::new(6);
        for v in 0..5 {
            dg.insert_edge(v, v + 1);
            dg.insert_edge(v + 1, v);
        }
        vec![
            build_backend(GraphSource::Undirected(path(6)), small_config()).unwrap(),
            build_backend(GraphSource::Directed(dg), small_config()).unwrap(),
            build_backend(GraphSource::Weighted(wg), small_config()).unwrap(),
        ]
    }

    #[test]
    fn all_families_serve_the_same_surface() {
        for mut b in backends() {
            let family = b.family();
            assert_eq!(b.num_vertices(), 6, "{family}");
            assert_eq!(b.query(0, 5), Some(5), "{family}");
            assert_eq!(b.query(0, 17), None, "{family}: out of range");
            assert_eq!(
                b.query_many(&[(0, 3), (0, 4), (2, 2)]),
                vec![Some(3), Some(4), Some(0)],
                "{family}"
            );
            assert_eq!(
                b.distances_from(1, &[0, 5, 9]),
                vec![Some(1), Some(4), None],
                "{family}"
            );
            assert_eq!(b.top_k_closest(0, 2), vec![(1, 1), (2, 2)], "{family}");
            assert_eq!(b.neighbors(1), vec![0, 2], "{family}");
            assert_eq!(b.degree(0), 1, "{family}");
            assert!(b.label_entries() > 0, "{family}");

            // Unified mutation: one commit, same shape everywhere.
            let stats = b
                .commit_edits(&[Edit::Insert(0, 5), Edit::Remove(2, 3)])
                .unwrap();
            assert_eq!(stats.applied, 2, "{family}");
            assert_eq!(b.query(0, 5), Some(1), "{family}");
            assert_eq!(b.query(0, 3), Some(3), "{family}: via the new edge");
            assert_eq!(b.version(), 1, "{family}");

            // Readers follow publications and share the plan surface.
            let reader = b.reader();
            assert_eq!(reader.query(0, 5), Some(1), "{family}");
            assert_eq!(
                reader.distances_from(0, &[3, 5]),
                vec![Some(3), Some(1)],
                "{family}"
            );
            assert_eq!(reader.version(), 1, "{family}");
            let clone = reader.clone_reader();
            assert_eq!(clone.query_many(&[(0, 3)]), vec![Some(3)], "{family}");
        }
    }

    #[test]
    fn invalid_explicit_landmarks_are_typed_errors_not_panics() {
        for source in [
            GraphSource::Undirected(path(4)),
            GraphSource::Directed(DynamicDiGraph::from_edges(4, &[(0, 1)])),
            GraphSource::Weighted(WeightedGraph::from_edges(4, &[(0, 1, 2)])),
        ] {
            let family = source.family();
            let dup = IndexConfig {
                selection: LandmarkSelection::Explicit(vec![1, 1]),
                ..IndexConfig::default()
            };
            assert_eq!(
                build_backend(source.clone(), dup).err(),
                Some(OracleError::Label(LabelError::DuplicateLandmark {
                    landmark: 1
                })),
                "{family}"
            );
            let oob = IndexConfig {
                selection: LandmarkSelection::Explicit(vec![0, 9]),
                ..IndexConfig::default()
            };
            assert!(
                matches!(
                    build_backend(source.clone(), oob),
                    Err(OracleError::Label(LabelError::LandmarkOutOfBounds { .. }))
                ),
                "{family}"
            );
        }
    }

    #[test]
    fn weight_edits_are_typed_errors_on_unweighted_families() {
        let mut b = build_backend(GraphSource::Undirected(path(4)), small_config()).unwrap();
        assert_eq!(
            b.commit_edits(&[Edit::SetWeight(0, 1, 3)]),
            Err(OracleError::WeightedEditsUnsupported {
                family: BackendFamily::Undirected
            })
        );
        // Unit-weight inserts are accepted (they are exact).
        assert!(b.commit_edits(&[Edit::InsertWeighted(0, 3, 1)]).is_ok());
        assert_eq!(b.query(0, 3), Some(1));
        // The weighted family accepts all edit kinds.
        let mut wg = WeightedGraph::new(4);
        wg.insert_edge(0, 1, 4);
        wg.insert_edge(1, 2, 1);
        let mut w = build_backend(GraphSource::Weighted(wg), small_config()).unwrap();
        w.commit_edits(&[Edit::SetWeight(0, 1, 2), Edit::InsertWeighted(2, 3, 5)])
            .unwrap();
        assert_eq!(w.query(0, 2), Some(3));
        assert_eq!(w.query(0, 3), Some(8));
    }
}
