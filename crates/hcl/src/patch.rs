//! Scoped label patches: the labelling half of a speculative
//! *what-if* session.
//!
//! A committed batch repairs the writer's working labelling; a what-if
//! session must not touch any shared state. Instead the repair kernels
//! run into forks of the base landmark rows ([`LabelRow::fork`]): a
//! fork shares every page with the base row and copies a page only when
//! the repair writes into it, so a patch holds just the pages the
//! hypothetical batch changed. The changed rows are collected in a
//! [`LabelPatch`] — a small hash-indexed side table keyed by landmark
//! index. A
//! [`PatchedLabels`] view then presents "patch row if present, else
//! base row" to the query layer, so the pinned snapshot's labelling is
//! never touched and any number of hypotheticals can share it.
//!
//! The highway matrix follows the same row discipline the parallel
//! repair relies on: landmark `i`'s pass is the only writer of highway
//! row `i`, so `highway(i, j)` reads patch row `i`'s copy when it
//! exists and the base otherwise — consistent for every `(i, j)` as
//! long as *all* landmarks were run (the speculative driver always
//! does).
//!
//! [`PatchedLabels`] implements [`LabelView`], so a session answers
//! through the same Section 4 code as a committed generation
//! ([`crate::query::QueryEngine`]). While the patch is empty the view
//! names the base labelling as its packed base and the Eq. 3 bound
//! keeps the SIMD kernels; once any row is patched, the bound reads the
//! merged rows exactly.

use batchhl_common::{Dist, FxHashMap, Vertex};

use crate::labelling::{LabelRow, Labelling};
use crate::query::LabelView;

/// One landmark's repaired rows: the full label row over the
/// (possibly grown) vertex range, plus that landmark's highway row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchRow {
    /// Repaired label row of the landmark (`NO_LABEL` where absent);
    /// it shares every page the repair did not write with the base.
    pub label: LabelRow,
    /// Repaired highway row `δ_H(r_i, ·)` of the landmark.
    pub highway: Box<[Dist]>,
}

/// The rows a hypothetical batch would change, keyed by landmark
/// index. Rows the batch leaves untouched are not stored — the view
/// falls through to the base labelling.
#[derive(Debug, Clone, Default)]
pub struct LabelPatch {
    rows: FxHashMap<usize, PatchRow>,
    n: usize,
}

impl LabelPatch {
    /// An empty patch over `n` vertices (the post-batch vertex count —
    /// at least the base labelling's).
    pub fn new(n: usize) -> Self {
        LabelPatch {
            rows: FxHashMap::default(),
            n,
        }
    }

    /// Record landmark `i`'s repaired rows.
    pub fn insert_row(&mut self, i: usize, row: PatchRow) {
        self.rows.insert(i, row);
    }

    /// Landmark `i`'s repaired rows, if the batch touched them.
    #[inline]
    pub fn row(&self, i: usize) -> Option<&PatchRow> {
        self.rows.get(&i)
    }

    /// `true` when the batch changed no rows (queries can use the base
    /// labelling's packed fast paths unchanged).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of patched landmark rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The post-batch vertex count the patch was computed over.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }
}

/// A read view merging a frozen base [`Labelling`] with a
/// [`LabelPatch`]: patch row if present, base row otherwise. `Copy` by
/// design — query code passes it around like the `&Labelling` it
/// stands in for, through the [`LabelView`] trait.
#[derive(Debug, Clone, Copy)]
pub struct PatchedLabels<'a> {
    base: &'a Labelling,
    patch: &'a LabelPatch,
}

impl<'a> PatchedLabels<'a> {
    pub fn new(base: &'a Labelling, patch: &'a LabelPatch) -> Self {
        PatchedLabels { base, patch }
    }

    /// Whether the view degenerates to the plain base labelling.
    #[inline]
    pub fn patch_is_empty(&self) -> bool {
        self.patch.is_empty()
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices().max(self.patch.num_vertices())
    }
}

impl LabelView for PatchedLabels<'_> {
    #[inline]
    fn num_landmarks(&self) -> usize {
        self.base.num_landmarks()
    }

    /// Landmarks are fixed for the life of a session; vertices the
    /// hypothetical batch grew past the base range are never landmarks.
    #[inline]
    fn landmark_index(&self, v: Vertex) -> Option<usize> {
        if (v as usize) < self.base.num_vertices() {
            self.base.landmark_index(v)
        } else {
            None
        }
    }

    #[inline]
    fn is_landmark(&self, v: Vertex) -> bool {
        self.landmark_index(v).is_some()
    }

    #[inline]
    fn label(&self, i: usize, v: Vertex) -> Dist {
        match self.patch.row(i) {
            Some(row) => row.label.get_or_absent(v),
            None => self.base.label_row(i).get_or_absent(v),
        }
    }

    #[inline]
    fn highway(&self, i: usize, j: usize) -> Dist {
        if let Some(row) = self.patch.row(i) {
            row.highway[j]
        } else {
            self.base.highway(i, j)
        }
    }

    /// The base labelling while the patch is empty and `v` lies in the
    /// base range: an empty patch keeps the packed kernels, any patched
    /// row sends the bound to the exact merged-row scan.
    #[inline]
    fn packed_base(&self, v: Vertex) -> Option<&Labelling> {
        (self.patch.is_empty() && (v as usize) < self.base.num_vertices()).then_some(self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labelling::LabelRow;
    use crate::query::SourcePlan;

    fn labelled_path(n: usize) -> Labelling {
        use batchhl_graph::generators::path;
        let g = path(n);
        crate::build_labelling(&g, vec![1, n as Vertex - 1]).unwrap()
    }

    #[test]
    fn empty_patch_view_matches_base() {
        let base = labelled_path(8);
        let patch = LabelPatch::new(base.num_vertices());
        let pl = PatchedLabels::new(&base, &patch);
        assert!(pl.patch_is_empty());
        for i in 0..base.num_landmarks() {
            for v in 0..8u32 {
                assert_eq!(pl.label(i, v), base.label(i, v));
                assert_eq!(
                    pl.landmark_dist(i, v).dist(),
                    base.landmark_to_vertex(i, v),
                    "landmark {i} vertex {v}"
                );
            }
            for j in 0..base.num_landmarks() {
                assert_eq!(pl.highway(i, j), base.highway(i, j));
            }
        }
        for s in 0..8u32 {
            for t in 0..8u32 {
                let bound = SourcePlan::new(&pl, &pl, s).bound_to(&pl, t);
                assert_eq!(bound, base.upper_bound(s, t), "({s},{t})");
            }
        }
    }

    #[test]
    fn patched_rows_shadow_base_and_out_of_range_reads_are_safe() {
        let base = labelled_path(4);
        let r = base.num_landmarks();
        let n = 6; // hypothetical batch grew the graph by two vertices
        let mut patch = LabelPatch::new(n);
        let mut label = LabelRow::absent(n);
        for v in 0..n as Vertex {
            label.set(v, 7);
        }
        let row = PatchRow {
            label,
            highway: (0..r).map(|j| base.highway(0, j)).collect(),
        };
        patch.insert_row(0, row);
        let pl = PatchedLabels::new(&base, &patch);
        assert!(!pl.patch_is_empty());
        assert_eq!(pl.num_vertices(), n);
        // Patched row shadows the base; unpatched rows fall through.
        assert_eq!(pl.label(0, 3), 7);
        if r > 1 {
            assert_eq!(pl.label(1, 3), base.label(1, 3));
            // Grown vertices read NO_LABEL from unpatched rows…
            assert_eq!(pl.label(1, 5), crate::NO_LABEL);
        }
        // …and never register as landmarks.
        assert_eq!(pl.landmark_index(5), None);
        assert!(!pl.is_landmark(5));
    }
}
