//! The unified update engine: one search→repair orchestration for every
//! index variant, and the publish step that turns a repaired working
//! buffer into the next generation.
//!
//! Algorithm 1 is the same loop in every setting: for each landmark,
//! run a batch search over the updated graph `G′` against the *old*
//! labelling `Γ` to find the affected vertices, then run batch repair to
//! rewrite that landmark's rows of the new labelling `Γ′`. What differs
//! between the undirected, directed (Section 6) and weighted
//! (Section 6) indexes is only the **search space** — plain BFS
//! traversal, forward/backward arc traversal, or Dijkstra over edge
//! weights. The [`UpdateKernel`] trait captures exactly that residue;
//! [`run_landmarks`] owns the orchestration (sequential or
//! landmark-parallel BHLₚ) once, for all of them.
//!
//! The kernel contract mirrors the write-disjointness argument of the
//! paper's parallel variant: a kernel invocation for landmark `i` may
//! read the whole old labelling and graph, but may write only landmark
//! `i`'s label row and highway row. That makes the parallel path safe
//! with nothing shared but read-only state.
//!
//! # The Γ → Γ′ double buffer
//!
//! `Γ′` starts every pass as a clone of the published `Γ`, which copies
//! page pointers only (see `batchhl_hcl::labelling`). Repair writes
//! through a [`LabelRow`] handle, so the pages it writes are copied and
//! every other page stays shared with `Γ` and with older generations
//! that readers pin. The index seals `Γ′`'s query mirror (re-sealing
//! only the blocks the pass wrote), and `publish_pass` publishes it and
//! makes the next `Γ′` a pointer copy of it: a recycled buffer takes
//! the fresh generation's labels by `Labelling::clone_from`, which
//! swaps only the page and cell pointers that differ. No label entry is
//! ever copied back: the `Recycler` only replays graph and CSR view
//! changes, which are not paged.

use crate::repair::batch_repair;
use crate::search::batch_search;
use crate::search_improved::batch_search_improved;
use crate::workspace::UpdateWorkspace;
use batchhl_common::{Dist, Vertex};
use batchhl_graph::{AdjacencyView, Update};
use batchhl_hcl::labelling::RowPair;
use batchhl_hcl::{LabelPatch, LabelRow, Labelling, PatchRow};

/// Per-landmark affected-vertex lists, in landmark order (their sizes
/// are reported in update stats).
pub type AffectedLists = Vec<Vec<Vertex>>;

/// The variant-specific part of one update pass: how to search and
/// repair a single landmark.
///
/// `G` is the search space (an [`AdjacencyView`] for the unweighted
/// kernels, the weighted graph for the Dijkstra kernel); `Update` the
/// update representation the search seeds from.
pub trait UpdateKernel<G: ?Sized + Sync>: Sync {
    type Update: Sync;
    type Workspace: Send;

    /// A fresh scratch workspace for `n` vertices (parallel workers own
    /// one each; the sequential path reuses the caller's).
    fn workspace(&self, n: usize) -> Self::Workspace;

    /// Search + repair landmark `i`: read the old labelling `old` and
    /// the updated graph `g`, rewrite `label_row` / `highway_row` of
    /// `Γ′`, and return the vertices whose entries were rewritten.
    #[allow(clippy::too_many_arguments)]
    fn process_landmark(
        &self,
        old: &Labelling,
        g: &G,
        updates: &[Self::Update],
        i: usize,
        label_row: &mut LabelRow,
        highway_row: &mut [Dist],
        ws: &mut Self::Workspace,
    ) -> Vec<Vertex>;
}

/// The unweighted kernel: batch search (Algorithm 2) or improved batch
/// search (Algorithm 3), then batch repair (Algorithm 4). `directed`
/// restricts search anchors to arc heads (Section 6); the same kernel
/// serves the forward and backward passes of the directed index via the
/// [`AdjacencyView`] abstraction.
#[derive(Debug, Clone, Copy)]
pub struct BfsKernel {
    pub improved: bool,
    pub directed: bool,
}

impl<G: AdjacencyView + Sync> UpdateKernel<G> for BfsKernel {
    type Update = Update;
    type Workspace = UpdateWorkspace;

    fn workspace(&self, n: usize) -> UpdateWorkspace {
        UpdateWorkspace::new(n)
    }

    fn process_landmark(
        &self,
        old: &Labelling,
        g: &G,
        updates: &[Update],
        i: usize,
        label_row: &mut LabelRow,
        highway_row: &mut [Dist],
        ws: &mut UpdateWorkspace,
    ) -> Vec<Vertex> {
        ws.reset();
        if self.improved {
            batch_search_improved(old, g, updates, i, self.directed, ws);
        } else {
            batch_search(old, g, updates, i, self.directed, ws);
        }
        batch_repair(old, g, i, label_row, highway_row, ws);
        ws.aff.inserted().to_vec()
    }
}

/// One full update pass: search + repair every landmark of `new_lab`,
/// sequentially or with landmark-level parallelism (`threads > 1`,
/// BHLₚ). Each parallel worker owns disjoint label/highway rows and a
/// private workspace; everything shared is read-only.
pub fn run_landmarks<G, K>(
    kernel: &K,
    old: &Labelling,
    g: &G,
    updates: &[K::Update],
    new_lab: &mut Labelling,
    threads: usize,
    ws: &mut K::Workspace,
) -> AffectedLists
where
    G: ?Sized + Sync,
    K: UpdateKernel<G>,
{
    // Chaos-suite injection point: by the time the pass reaches the
    // landmark loop the working graph is already mutated, so a panic
    // here leaves maximally half-applied writer state behind. There is
    // no Result channel through a repair pass — an armed Error action
    // panics too.
    if let Err(msg) = batchhl_common::failpoint::check("engine::mid_repair_panic") {
        panic!("{msg}");
    }
    let n = new_lab.num_vertices();
    let r = new_lab.num_landmarks();
    let threads = threads.max(1).min(r.max(1));
    if threads <= 1 {
        let mut affected = Vec::with_capacity(r);
        for i in 0..r {
            landmark_failpoint();
            let (label_row, highway_row) = new_lab.row_mut(i);
            affected.push(kernel.process_landmark(old, g, updates, i, label_row, highway_row, ws));
        }
        return affected;
    }

    let (rows, _) = new_lab.rows_mut();
    let mut work: Vec<(usize, RowPair<'_>)> = rows.into_iter().enumerate().collect();
    let per = r.div_ceil(threads);
    let mut results: AffectedLists = vec![Vec::new(); r];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        while !work.is_empty() {
            let take = per.min(work.len());
            let chunk: Vec<_> = work.drain(..take).collect();
            handles.push(scope.spawn(move || {
                let mut ws = kernel.workspace(n);
                let mut out = Vec::with_capacity(chunk.len());
                for (i, (label_row, highway_row)) in chunk {
                    landmark_failpoint();
                    out.push((
                        i,
                        kernel.process_landmark(
                            old,
                            g,
                            updates,
                            i,
                            label_row,
                            highway_row,
                            &mut ws,
                        ),
                    ));
                }
                out
            }));
        }
        for h in handles {
            match h.join() {
                Ok(rows) => {
                    for (i, aff) in rows {
                        results[i] = aff;
                    }
                }
                // Re-raise the worker's own payload instead of a fresh
                // "worker panicked" panic: the facade's containment
                // records the payload string in the poisoned-health
                // reason, and it must name the original failure even
                // when it crossed a scoped thread.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    results
}

/// The speculative twin of [`run_landmarks`]: run the same search +
/// repair kernels for every landmark, but into *forks* of the old rows
/// ([`LabelRow::fork`]), collected as a [`LabelPatch`] — the shared
/// labelling is never written. This is the labelling half of a what-if
/// session: `old` must already be grown to the hypothetical graph's
/// vertex count (see [`oracle_for`]) and `g` is the session's private
/// overlay view.
///
/// A fork shares every page with the old row and copies only the pages
/// the repair writes, so a patch holds just the pages the batch
/// changed. Only rows the batch actually changed are kept (a written
/// label or highway entry); untouched landmarks fall through to the
/// base when queried. Sessions are built on reader threads — no
/// failpoints, no parallel fan-out, no writer state.
pub(crate) fn run_landmarks_speculative<G, K>(
    kernel: &K,
    old: &Labelling,
    g: &G,
    updates: &[K::Update],
) -> LabelPatch
where
    G: ?Sized + Sync,
    K: UpdateKernel<G>,
{
    let n = old.num_vertices();
    let r = old.num_landmarks();
    let mut patch = LabelPatch::new(n);
    let mut ws = kernel.workspace(n);
    for i in 0..r {
        let mut label_row = old.label_row(i).fork();
        let mut highway_row: Box<[Dist]> = old.highway_row(i).into();
        kernel.process_landmark(
            old,
            g,
            updates,
            i,
            &mut label_row,
            &mut highway_row,
            &mut ws,
        );
        if label_row.is_dirty() || *highway_row != *old.highway_row(i) {
            patch.insert_row(
                i,
                PatchRow {
                    label: label_row,
                    highway: highway_row,
                },
            );
        }
    }
    patch
}

/// Chaos injection point *inside* the landmark loop — reached once per
/// landmark, in the sequential path and inside every scoped parallel
/// worker, so the suite can make a panic originate in a worker thread
/// and cross `scope`/`join` before hitting commit containment.
#[inline]
fn landmark_failpoint() {
    if let Err(msg) = batchhl_common::failpoint::check("engine::landmark_panic") {
        panic!("{msg}");
    }
}

/// Reclaims retired generation buffers for a writer.
///
/// A generation's labels are page pointers, cheap to clone; its graph
/// is not paged, and cloning it is the one `O(|V| + |E|)` copy a pass
/// could still pay. So the writer reuses the retired generation's
/// buffers and brings their graph and CSR view forward by replaying the
/// logged batches.
///
/// Immediately after a publish the just-retired generation is usually
/// still pinned by readers — they re-pin lazily, on their next query —
/// so `Arc::try_unwrap` on it fails exactly when readers are active,
/// which is the scenario the store exists for. The recycler therefore
/// also keeps *one* older retired generation together with the replay
/// log of the pass that superseded it: by the next publish, active
/// readers have re-pinned past that generation and its buffer can be
/// reclaimed by replaying the (at most two) logged passes. Steady
/// state with busy readers reuses buffers every pass in `O(batch)`;
/// only a reader that pins a generation and never refreshes forces the
/// clone fallback.
///
/// `L` is the per-pass replay log (the normalized updates); the
/// caller's `replay` closure must transform a buffer's graph and view
/// holding the state *before* a logged pass into the state *after* it.
#[derive(Debug)]
pub(crate) struct Recycler<S, L> {
    retired: Option<(std::sync::Arc<batchhl_hcl::Versioned<S>>, L)>,
}

impl<S, L> Default for Recycler<S, L> {
    fn default() -> Self {
        Recycler { retired: None }
    }
}

impl<S, L> Recycler<S, L> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget every retained candidate (used when a publish bypasses
    /// pass logging, e.g. a from-scratch rebuild — replaying logs over
    /// a pre-rebuild buffer would skip the rebuild's changes).
    pub fn clear(&mut self) {
        self.retired = None;
    }

    /// Offer the generation retired by the publish that just happened
    /// (`prev`) plus the log of the pass that superseded it. Returns a
    /// reclaimed, fully replayed buffer, or `None` when every candidate
    /// is still pinned by readers (caller falls back to a clone).
    pub fn reclaim(
        &mut self,
        prev: std::sync::Arc<batchhl_hcl::Versioned<S>>,
        log: L,
        mut replay: impl FnMut(&mut S, &L),
    ) -> Option<S> {
        match std::sync::Arc::try_unwrap(prev) {
            Ok(retired) => {
                // Newest candidate is free; drop any older one (its
                // readers will free it).
                self.retired = None;
                let mut buf = retired.into_value();
                replay(&mut buf, &log);
                Some(buf)
            }
            Err(still_pinned) => {
                let reclaimed = self.retired.take().and_then(|(old_arc, old_log)| {
                    std::sync::Arc::try_unwrap(old_arc).ok().map(|retired| {
                        let mut buf = retired.into_value();
                        replay(&mut buf, &old_log);
                        replay(&mut buf, &log);
                        buf
                    })
                });
                self.retired = Some((still_pinned, log));
                reclaimed
            }
        }
    }
}

/// The publish epilogue every index runs after a repair pass (and after
/// sealing the working snapshot's labels): swap the working snapshot
/// into the store, release the writer's own pin on the old generation,
/// and rebuild the working buffer — from a recycled retired generation
/// when possible ([`Recycler`]), from a full clone of the fresh one
/// otherwise.
///
/// `replay(buf, fresh, log)` must bring `buf`'s graph and view (holding
/// the state just *before* a logged pass) to the state just *after* it,
/// and point `buf`'s labellings at `fresh`'s pages and mirror cells with
/// `Labelling::clone_from`.
pub(crate) fn publish_pass<S: Clone, L>(
    store: &batchhl_hcl::LabelStore<S>,
    recycler: &mut Recycler<S, L>,
    work: &mut S,
    placeholder: S,
    old: std::sync::Arc<batchhl_hcl::Versioned<S>>,
    log: L,
    mut replay: impl FnMut(&mut S, &S, &L),
) {
    let next = std::mem::replace(work, placeholder);
    let (fresh, prev) = store.publish(next);
    // The writer's own pin on the retired generation must go before
    // reclamation can ever see it uniquely owned.
    drop(old);
    *work = recycler
        .reclaim(prev, log, |buf, l| replay(buf, fresh.value(), l))
        .unwrap_or_else(|| fresh.value().clone());
}

/// The old labelling `Γ` may describe fewer vertices than `G′` when the
/// batch introduced new ones; kernels index it by `G′` vertex ids, so
/// grow a copy on (rare) vertex growth and borrow in place otherwise.
pub(crate) fn oracle_for<'a>(
    old: &'a Labelling,
    n: usize,
    grown: &'a mut Option<Labelling>,
) -> &'a Labelling {
    if old.num_vertices() >= n {
        old
    } else {
        let mut copy = old.clone();
        copy.ensure_vertices(n);
        grown.insert(copy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchhl_graph::generators::{barabasi_albert, path};
    use batchhl_graph::{Batch, DynamicGraph};
    use batchhl_hcl::{build_labelling, oracle};

    fn repaired_by_engine(
        g0: &DynamicGraph,
        landmarks: Vec<Vertex>,
        batch: &Batch,
        improved: bool,
        threads: usize,
    ) -> (Labelling, DynamicGraph) {
        let old = build_labelling(g0, landmarks).unwrap();
        let norm = batch.normalize(g0);
        let mut g1 = g0.clone();
        g1.apply_batch(&norm);
        let mut new_lab = old.clone();
        new_lab.ensure_vertices(g1.num_vertices());
        let mut grown = None;
        let oracle = oracle_for(&old, g1.num_vertices(), &mut grown);
        let kernel = BfsKernel {
            improved,
            directed: false,
        };
        let mut ws = UpdateKernel::<DynamicGraph>::workspace(&kernel, g1.num_vertices());
        run_landmarks(
            &kernel,
            oracle,
            &g1,
            norm.updates(),
            &mut new_lab,
            threads,
            &mut ws,
        );
        (new_lab, g1)
    }

    #[test]
    fn engine_repairs_to_minimality_seq_and_parallel() {
        let g0 = barabasi_albert(120, 3, 5);
        let mut batch = Batch::new();
        batch.delete(0, 1);
        batch.insert(3, 117);
        batch.insert(40, 90);
        for improved in [false, true] {
            for threads in [1, 4] {
                let (lab, g1) =
                    repaired_by_engine(&g0, vec![0, 1, 2, 5], &batch, improved, threads);
                oracle::check_minimal(&g1, &lab)
                    .unwrap_or_else(|e| panic!("improved={improved} threads={threads}: {e}"));
            }
        }
    }

    #[test]
    // The `pin` writes are never read back — they model *when* the
    // simulated reader's Arc moves between generations, which is what
    // drives try_unwrap success/failure.
    #[allow(unused_assignments, clippy::identity_op)]
    fn recycler_reclaims_one_publish_late_under_pinning() {
        use batchhl_hcl::LabelStore;

        let store = LabelStore::new(0u64);
        let mut recycler: Recycler<u64, u64> = Recycler::new();
        let replay = |buf: &mut u64, log: &u64| *buf += log;

        // Reader pins each generation the way real readers do: it holds
        // the newest one at all times.
        let mut pin = store.snapshot();

        // Pass 1: the reader still pins gen 0 when the writer tries to
        // reclaim it; nothing older is retained yet -> clone fallback.
        let (fresh, prev) = store.publish(1);
        assert!(
            recycler.reclaim(prev, 1, replay).is_none(),
            "first pass clones"
        );
        pin = fresh; // reader re-pins the new generation afterwards

        // Pass 2: prev (gen 1) is pinned, but gen 0 is now free —
        // reclaimed and replayed through both logged passes.
        let (fresh, prev) = store.publish(2);
        let buf = recycler
            .reclaim(prev, 1, replay)
            .expect("steady state recycles");
        assert_eq!(buf, 0 + 1 + 1, "both passes replayed in order");
        pin = fresh;

        // Pass 3: same shape — the one-publish-old buffer keeps coming
        // back every pass while the reader stays current.
        let (fresh, prev) = store.publish(3);
        let buf = recycler.reclaim(prev, 1, replay).expect("recycles again");
        assert_eq!(buf, 1 + 1 + 1);
        pin = fresh;

        // Clear drops retained candidates (rebuild semantics): with the
        // newest generation still pinned and nothing retained, the
        // writer must clone.
        recycler.clear();
        let (_, prev) = store.publish(4);
        assert!(recycler.reclaim(prev, 1, replay).is_none());

        // Once the reader lets go entirely, prev itself is free.
        drop(pin);
        let (_, prev) = store.publish(5);
        assert!(
            recycler.reclaim(prev, 1, replay).is_some(),
            "prev unpinned after readers dropped"
        );
    }

    #[test]
    fn oracle_for_grows_only_when_needed() {
        let g = path(4);
        let old = build_labelling(&g, vec![0]).unwrap();
        let mut grown = None;
        assert!(std::ptr::eq(oracle_for(&old, 4, &mut grown), &old));
        assert!(grown.is_none());
        let bigger = oracle_for(&old, 8, &mut grown);
        assert_eq!(bigger.num_vertices(), 8);
        assert_eq!(bigger.label(0, 2), old.label(0, 2));
    }
}
