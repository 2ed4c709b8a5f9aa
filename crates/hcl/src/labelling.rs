//! Labelling storage and the landmark-distance oracle.
//!
//! Layout: one dense `Box<[Dist]>` row per landmark holding either the
//! label distance or the [`NO_LABEL`] sentinel, plus a dense
//! `|R| × |R|` highway matrix. Landmark-major rows make (a) per-landmark
//! repair a contiguous-row affair, and (b) the landmark-level
//! parallelism of BHLₚ lock-free (threads own disjoint rows).
//!
//! A `Labelling` is one *buffer*. The live system keeps two: the
//! published generation `Γ` (immutable, shared with readers through
//! [`crate::store::LabelStore`]) and the writer's working buffer `Γ′`
//! that batch repair mutates row-by-row before it is published in turn.
//! See the `batchhl-core` crate docs for the full generation/reader
//! architecture.
//!
//! The *logical* labelling — the set of `(landmark, dist)` pairs at
//! non-sentinel slots — is exactly the paper's minimal highway cover
//! labelling; sizes are reported over logical entries.
//!
//! Queries read through a second, derived layout: the packed
//! vertex-major mirror of [`crate::packed`] (landmark ids ascending,
//! distances width-narrowed per row), sealed lazily on first query use
//! via [`Labelling::packed`] and invalidated by every mutation. Dense
//! rows stay canonical for repair; the packed mirror is what the Eq. 3
//! scans and the SIMD kernels of [`crate::kernel`] operate on.

use crate::packed::PackedIndex;
use crate::query::LabelView;
use batchhl_common::{Dist, Vertex, INF};
use std::fmt;
use std::sync::OnceLock;

/// Sentinel stored in a label row when the vertex holds no label for
/// that landmark (either unreachable or covered via another landmark).
pub const NO_LABEL: Dist = INF;

/// Sentinel in the vertex → landmark-index map.
const NOT_LANDMARK: u16 = u16::MAX;

/// One landmark's mutable label row paired with its highway row.
pub type RowPair<'a> = (&'a mut [Dist], &'a mut [Dist]);

/// Why a labelling could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelError {
    /// More landmarks than the `u16` landmark index can address.
    TooManyLandmarks { count: usize, max: usize },
    /// A landmark id is not a vertex of the graph.
    LandmarkOutOfBounds {
        landmark: Vertex,
        num_vertices: usize,
    },
    /// The same vertex appears twice in the landmark list.
    DuplicateLandmark { landmark: Vertex },
    /// Externally supplied label rows / highway matrix have the wrong
    /// dimensions for the declared `n` and landmark count.
    ShapeMismatch {
        what: &'static str,
        expected: usize,
        found: usize,
    },
    /// A labelling loaded from external parts covers a different vertex
    /// set than the graph it is paired with.
    VertexCountMismatch { labelling: usize, graph: usize },
    /// A loaded highway matrix has a nonzero diagonal entry.
    CorruptHighwayDiagonal { index: usize },
}

impl fmt::Display for LabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LabelError::TooManyLandmarks { count, max } => {
                write!(f, "too many landmarks: {count} (max {max})")
            }
            LabelError::LandmarkOutOfBounds {
                landmark,
                num_vertices,
            } => write!(
                f,
                "landmark {landmark} out of bounds (graph has {num_vertices} vertices)"
            ),
            LabelError::DuplicateLandmark { landmark } => {
                write!(f, "duplicate landmark {landmark}")
            }
            LabelError::ShapeMismatch {
                what,
                expected,
                found,
            } => write!(f, "{what}: expected {expected} entries, found {found}"),
            LabelError::VertexCountMismatch { labelling, graph } => write!(
                f,
                "labelling covers {labelling} vertices, graph has {graph}"
            ),
            LabelError::CorruptHighwayDiagonal { index } => {
                write!(f, "highway diagonal {index} is nonzero")
            }
        }
    }
}

impl std::error::Error for LabelError {}

/// Validate a landmark list against `n` and build the inverse
/// vertex → landmark-index map (shared by [`Labelling::empty`] and
/// [`Labelling::from_parts`]).
fn index_landmarks(n: usize, landmarks: &[Vertex]) -> Result<Vec<u16>, LabelError> {
    let r = landmarks.len();
    if r >= NOT_LANDMARK as usize {
        return Err(LabelError::TooManyLandmarks {
            count: r,
            max: NOT_LANDMARK as usize - 1,
        });
    }
    let mut lm_index = vec![NOT_LANDMARK; n];
    for (i, &v) in landmarks.iter().enumerate() {
        if (v as usize) >= n {
            return Err(LabelError::LandmarkOutOfBounds {
                landmark: v,
                num_vertices: n,
            });
        }
        if lm_index[v as usize] != NOT_LANDMARK {
            return Err(LabelError::DuplicateLandmark { landmark: v });
        }
        lm_index[v as usize] = i as u16;
    }
    Ok(lm_index)
}

/// A highway cover labelling `Γ = (H, L)`.
///
/// The dense landmark-major rows are the canonical, mutable substrate
/// (batch repair owns disjoint rows). The `packed` field is a lazily
/// built vertex-major query mirror ([`PackedIndex`]): first query use
/// seals it, every `&mut` accessor invalidates it, so a published
/// (immutable) generation builds it at most once and repair passes
/// never pay for it. Equality ignores the cache.
#[derive(Debug, Clone)]
pub struct Labelling {
    /// Landmarks in selection order; `landmarks[i]` is the vertex id of
    /// landmark `i`.
    landmarks: Vec<Vertex>,
    /// Inverse map: `lm_index[v] == i` iff `landmarks[i] == v`.
    lm_index: Vec<u16>,
    /// `labels[i][v]`: the `r_i`-label of `v`, or [`NO_LABEL`].
    labels: Vec<Box<[Dist]>>,
    /// Row-major `|R| × |R|` matrix of exact landmark distances.
    highway: Vec<Dist>,
    /// Lazily sealed packed query mirror (see [`crate::packed`]).
    packed: OnceLock<PackedIndex>,
}

impl PartialEq for Labelling {
    fn eq(&self, other: &Self) -> bool {
        // The packed cache is derived state: two labellings are equal
        // iff their logical content is, whether or not either has been
        // queried yet.
        self.landmarks == other.landmarks
            && self.lm_index == other.lm_index
            && self.labels == other.labels
            && self.highway == other.highway
    }
}

impl Eq for Labelling {}

impl Labelling {
    /// An empty labelling (no labels, infinite highway) over `n`
    /// vertices with the given landmarks. Construction fills it in.
    ///
    /// Fails if there are more landmarks than the `u16` index can
    /// address, a landmark id is `>= n`, or a landmark repeats.
    pub fn empty(n: usize, landmarks: Vec<Vertex>) -> Result<Self, LabelError> {
        let r = landmarks.len();
        let lm_index = index_landmarks(n, &landmarks)?;
        let mut highway = vec![INF; r * r];
        for i in 0..r {
            highway[i * r + i] = 0;
        }
        Ok(Labelling {
            landmarks,
            lm_index,
            labels: (0..r)
                .map(|_| vec![NO_LABEL; n].into_boxed_slice())
                .collect(),
            highway,
            packed: OnceLock::new(),
        })
    }

    /// Assemble a labelling from externally loaded parts (e.g. the
    /// persistence layer): dense label rows (one per landmark, each of
    /// length `n`, [`NO_LABEL`] marking absent entries) and a row-major
    /// `r × r` highway matrix.
    ///
    /// Validates the landmark set exactly like [`Labelling::empty`],
    /// checks every dimension against `n`/`r`, and requires a zero
    /// highway diagonal — loaders get a typed error instead of an index
    /// that panics later.
    pub fn from_parts(
        n: usize,
        landmarks: Vec<Vertex>,
        rows: Vec<Box<[Dist]>>,
        highway: Vec<Dist>,
    ) -> Result<Self, LabelError> {
        // Validate landmarks and assemble directly from the supplied
        // buffers — no throwaway r×n allocation on the load path, where
        // a restarted serving process is most memory-constrained.
        let lm_index = index_landmarks(n, &landmarks)?;
        let r = landmarks.len();
        if rows.len() != r {
            return Err(LabelError::ShapeMismatch {
                what: "label row count",
                expected: r,
                found: rows.len(),
            });
        }
        for row in &rows {
            if row.len() != n {
                return Err(LabelError::ShapeMismatch {
                    what: "label row length",
                    expected: n,
                    found: row.len(),
                });
            }
        }
        if highway.len() != r * r {
            return Err(LabelError::ShapeMismatch {
                what: "highway matrix",
                expected: r * r,
                found: highway.len(),
            });
        }
        for i in 0..r {
            if highway[i * r + i] != 0 {
                return Err(LabelError::CorruptHighwayDiagonal { index: i });
            }
        }
        Ok(Labelling {
            landmarks,
            lm_index,
            labels: rows,
            highway,
            packed: OnceLock::new(),
        })
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.lm_index.len()
    }

    #[inline]
    pub fn num_landmarks(&self) -> usize {
        self.landmarks.len()
    }

    #[inline]
    pub fn landmarks(&self) -> &[Vertex] {
        &self.landmarks
    }

    #[inline]
    pub fn landmark_vertex(&self, i: usize) -> Vertex {
        self.landmarks[i]
    }

    /// Landmark index of `v`, if it is one.
    #[inline]
    pub fn landmark_index(&self, v: Vertex) -> Option<usize> {
        let i = self.lm_index[v as usize];
        (i != NOT_LANDMARK).then_some(i as usize)
    }

    #[inline]
    pub fn is_landmark(&self, v: Vertex) -> bool {
        self.lm_index[v as usize] != NOT_LANDMARK
    }

    /// The `r_i`-label of `v` ([`NO_LABEL`] if absent).
    #[inline]
    pub fn label(&self, i: usize, v: Vertex) -> Dist {
        self.labels[i][v as usize]
    }

    #[inline]
    pub fn set_label(&mut self, i: usize, v: Vertex, d: Dist) {
        self.packed.take();
        self.labels[i][v as usize] = d;
    }

    #[inline]
    pub fn remove_label(&mut self, i: usize, v: Vertex) {
        self.packed.take();
        self.labels[i][v as usize] = NO_LABEL;
    }

    /// Full label row for landmark `i` (used by batch repair).
    #[inline]
    pub fn label_row(&self, i: usize) -> &[Dist] {
        &self.labels[i]
    }

    #[inline]
    pub fn label_row_mut(&mut self, i: usize) -> &mut [Dist] {
        self.packed.take();
        &mut self.labels[i]
    }

    /// Highway distance `δ_H(r_i, r_j)`.
    #[inline]
    pub fn highway(&self, i: usize, j: usize) -> Dist {
        self.highway[i * self.landmarks.len() + j]
    }

    /// Write one directed highway entry `δ_H(r_i, r_j) ← d`.
    ///
    /// Deliberately *not* mirrored: on undirected graphs the repair pass
    /// for landmark `j` writes the `(j, i)` entry itself (the two are
    /// affected symmetrically), which keeps landmark-level parallelism
    /// write-disjoint. Use [`Labelling::set_highway_sym`] elsewhere.
    #[inline]
    pub fn set_highway_row(&mut self, i: usize, j: usize, d: Dist) {
        self.packed.take();
        let r = self.landmarks.len();
        self.highway[i * r + j] = d;
    }

    /// Write a symmetric highway entry (construction on undirected
    /// graphs).
    #[inline]
    pub fn set_highway_sym(&mut self, i: usize, j: usize, d: Dist) {
        self.packed.take();
        let r = self.landmarks.len();
        self.highway[i * r + j] = d;
        self.highway[j * r + i] = d;
    }

    /// Exact `d_G(r_i, v)` recovered from the labelling (Eq. 2):
    /// the label if present, otherwise the best label + highway detour
    /// (see [`LabelView::landmark_dist`]).
    pub fn landmark_to_vertex(&self, i: usize, v: Vertex) -> Dist {
        self.landmark_dist(i, v).dist()
    }

    /// The upper bound `d⊤(s, t)` of Eq. 3: the length of the best
    /// `s → r_i → r_j → t` route through the highway, `INF` if none.
    /// Served from the packed query mirror — `O(|L(s)|·|L(t)|)` over
    /// logical entries instead of `O(|R|²)` over dense rows.
    pub fn upper_bound(&self, s: Vertex, t: Vertex) -> Dist {
        let packed = self.packed();
        let (srow, trow) = (packed.labels.row(s), packed.labels.row(t));
        let mut best = u64::from(INF);
        for a in 0..srow.len() {
            let (i, ls) = srow.entry(a);
            for b in 0..trow.len() {
                let (j, lt) = trow.entry(b);
                let h = packed.highway.get(i as usize, j as usize);
                if h != INF {
                    best = best.min(u64::from(ls) + u64::from(h) + u64::from(lt));
                }
            }
        }
        best.min(u64::from(INF)) as Dist
    }

    /// Reference Eq. 3 evaluation over the dense rows, bypassing the
    /// packed mirror. Kept for the equivalence test suites; prefer
    /// [`Labelling::upper_bound`].
    #[doc(hidden)]
    pub fn upper_bound_dense(&self, s: Vertex, t: Vertex) -> Dist {
        let r = self.landmarks.len();
        let mut best = u64::from(INF);
        for i in 0..r {
            let ls = self.labels[i][s as usize];
            if ls == NO_LABEL {
                continue;
            }
            let row = &self.highway[i * r..(i + 1) * r];
            for (j, &h) in row.iter().enumerate() {
                if h == INF {
                    continue;
                }
                let lt = self.labels[j][t as usize];
                if lt == NO_LABEL {
                    continue;
                }
                best = best.min(ls as u64 + h as u64 + lt as u64);
            }
        }
        best.min(u64::from(INF)) as Dist
    }

    /// The packed vertex-major query mirror, sealed on first use (see
    /// [`crate::packed`]). Any later mutation invalidates it.
    #[inline]
    pub fn packed(&self) -> &PackedIndex {
        self.packed.get_or_init(|| PackedIndex::build(self))
    }

    /// Whether the packed mirror is currently sealed (diagnostics —
    /// memory reports want to know what is resident).
    pub fn packed_is_sealed(&self) -> bool {
        self.packed.get().is_some()
    }

    /// Resident bytes of the dense landmark-major representation
    /// (label rows + highway + landmark maps).
    pub fn dense_resident_bytes(&self) -> usize {
        self.labels.len() * self.num_vertices() * 4
            + self.highway.len() * 4
            + self.lm_index.len() * 2
            + self.landmarks.len() * 4
    }

    /// Logical label entries of one vertex, `(landmark index, dist)`.
    pub fn label_entries(&self, v: Vertex) -> impl Iterator<Item = (usize, Dist)> + '_ {
        self.labels.iter().enumerate().filter_map(move |(i, row)| {
            let d = row[v as usize];
            (d != NO_LABEL).then_some((i, d))
        })
    }

    /// Total number of logical label entries, `Σ_v |L(v)|`.
    pub fn size_entries(&self) -> usize {
        self.labels
            .iter()
            .map(|row| row.iter().filter(|&&d| d != NO_LABEL).count())
            .sum()
    }

    /// Average label size per vertex.
    pub fn avg_label_size(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.size_entries() as f64 / self.num_vertices() as f64
        }
    }

    /// Logical size in bytes: entries as `(u16 landmark, u32 dist)`
    /// pairs plus the highway matrix. This is the quantity Table 4's
    /// "Labelling Size" column reports.
    pub fn size_bytes(&self) -> usize {
        self.size_entries() * (2 + 4) + self.landmarks.len() * self.landmarks.len() * 4
    }

    /// Grow the vertex set (new vertices carry no labels).
    pub fn ensure_vertices(&mut self, n: usize) {
        if n <= self.num_vertices() {
            return;
        }
        self.packed.take();
        self.lm_index.resize(n, NOT_LANDMARK);
        for row in &mut self.labels {
            let mut v = std::mem::take(row).into_vec();
            v.resize(n, NO_LABEL);
            *row = v.into_boxed_slice();
        }
    }

    /// Mutable access to one landmark's label row and highway row (the
    /// only parts of `Γ′` that landmark `i`'s repair writes).
    pub fn row_mut(&mut self, i: usize) -> (&mut [Dist], &mut [Dist]) {
        self.packed.take();
        let r = self.landmarks.len();
        (&mut self.labels[i], &mut self.highway[i * r..(i + 1) * r])
    }

    /// Disjoint mutable views of every label row together with the
    /// matching highway row, for landmark-parallel repair.
    pub fn rows_mut(&mut self) -> (Vec<RowPair<'_>>, &[Vertex]) {
        self.packed.take();
        let r = self.landmarks.len();
        let mut out = Vec::with_capacity(r);
        let mut labels: &mut [Box<[Dist]>] = &mut self.labels;
        let mut highway: &mut [Dist] = &mut self.highway;
        for _ in 0..r {
            let (lrow, lrest) = labels.split_first_mut().unwrap();
            let (hrow, hrest) = highway.split_at_mut(r);
            labels = lrest;
            highway = hrest;
            out.push((&mut lrow[..], hrow));
        }
        (out, &self.landmarks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Labelling {
        // 6 vertices, landmarks 0 and 3.
        let mut l = Labelling::empty(6, vec![0, 3]).unwrap();
        l.set_highway_sym(0, 1, 2);
        l.set_label(0, 1, 1); // d(0,1)=1, not covered
        l.set_label(0, 2, 1);
        l.set_label(1, 2, 1); // vertex 2 adjacent to both landmarks
        l.set_label(1, 4, 1);
        l
    }

    #[test]
    fn landmark_bookkeeping() {
        let l = sample();
        assert_eq!(l.num_landmarks(), 2);
        assert_eq!(l.landmark_index(0), Some(0));
        assert_eq!(l.landmark_index(3), Some(1));
        assert_eq!(l.landmark_index(2), None);
        assert!(l.is_landmark(3));
        assert_eq!(l.landmark_vertex(1), 3);
    }

    #[test]
    fn constructor_rejects_invalid_landmark_sets() {
        assert_eq!(
            Labelling::empty(4, vec![1, 1]),
            Err(LabelError::DuplicateLandmark { landmark: 1 })
        );
        assert_eq!(
            Labelling::empty(4, vec![9]),
            Err(LabelError::LandmarkOutOfBounds {
                landmark: 9,
                num_vertices: 4
            })
        );
        let too_many: Vec<Vertex> = (0..u16::MAX as u32).collect();
        assert_eq!(
            Labelling::empty(u16::MAX as usize, too_many),
            Err(LabelError::TooManyLandmarks {
                count: u16::MAX as usize,
                max: u16::MAX as usize - 1
            })
        );
        assert!(Labelling::empty(4, vec![1, 3]).is_ok());
    }

    #[test]
    fn highway_diagonal_is_zero() {
        let l = sample();
        assert_eq!(l.highway(0, 0), 0);
        assert_eq!(l.highway(1, 1), 0);
        assert_eq!(l.highway(0, 1), 2);
        assert_eq!(l.highway(1, 0), 2);
    }

    #[test]
    fn landmark_dist_cases() {
        let l = sample();
        use batchhl_common::LandmarkLength as LL;
        // Self.
        assert_eq!(l.landmark_dist(0, 0), LL::ZERO);
        // Other landmark: highway distance, flag set.
        assert_eq!(l.landmark_dist(0, 3), LL::new(2, true));
        // Labelled vertex: label distance, flag clear.
        assert_eq!(l.landmark_dist(0, 1), LL::new(1, false));
        // Covered vertex: label of the other landmark + highway.
        assert_eq!(l.landmark_dist(0, 4), LL::new(3, true));
        // Unreachable vertex.
        assert_eq!(l.landmark_dist(0, 5), LL::INFINITE);
        assert_eq!(l.landmark_to_vertex(0, 5), INF);
    }

    #[test]
    fn upper_bound_routes_through_highway() {
        let l = sample();
        // 1 → r0 → r1 → 4 : 1 + 2 + 1 = 4.
        assert_eq!(l.upper_bound(1, 4), 4);
        // 2 has labels to both landmarks: 2 → r1 → 4 gives 1 + 0 + 1.
        assert_eq!(l.upper_bound(2, 4), 2);
        // No labels on 5.
        assert_eq!(l.upper_bound(1, 5), INF);
    }

    #[test]
    fn sizes_count_logical_entries() {
        let l = sample();
        assert_eq!(l.size_entries(), 4);
        assert!((l.avg_label_size() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(l.size_bytes(), 4 * 6 + 4 * 4);
        let entries: Vec<_> = l.label_entries(2).collect();
        assert_eq!(entries, vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn ensure_vertices_extends_rows() {
        let mut l = sample();
        l.ensure_vertices(10);
        assert_eq!(l.num_vertices(), 10);
        assert_eq!(l.label(0, 9), NO_LABEL);
        assert_eq!(l.landmark_index(9), None);
        // Old content survives.
        assert_eq!(l.label(0, 1), 1);
    }

    #[test]
    fn packed_cache_seals_lazily_and_invalidates_on_mutation() {
        let mut l = sample();
        assert!(!l.packed_is_sealed());
        assert_eq!(l.upper_bound(1, 4), 4);
        assert!(l.packed_is_sealed());
        // Mutation drops the mirror; the next query resews it and sees
        // the new label (route 1 → r0 → 4 = 1 + 0 + 2).
        l.set_label(0, 4, 2);
        assert!(!l.packed_is_sealed());
        assert_eq!(l.upper_bound(1, 4), 3);
        assert_eq!(l.upper_bound(1, 4), l.upper_bound_dense(1, 4));
        // Every mutator family invalidates.
        l.upper_bound(1, 4);
        l.row_mut(0);
        assert!(!l.packed_is_sealed());
        l.upper_bound(1, 4);
        l.rows_mut();
        assert!(!l.packed_is_sealed());
        l.upper_bound(1, 4);
        l.ensure_vertices(9);
        assert!(!l.packed_is_sealed());
        l.upper_bound(1, 4);
        l.set_highway_sym(0, 1, 3);
        assert!(!l.packed_is_sealed());
    }

    #[test]
    fn equality_ignores_the_packed_cache() {
        let a = sample();
        let b = a.clone();
        a.packed(); // seal one side only
        assert_eq!(a, b);
        assert!(a.packed_is_sealed());
        assert!(a.dense_resident_bytes() > 0);
    }

    #[test]
    fn rows_mut_are_disjoint_and_aligned() {
        let mut l = sample();
        {
            let (rows, lms) = l.rows_mut();
            assert_eq!(lms, &[0, 3]);
            assert_eq!(rows.len(), 2);
            for (i, (lrow, hrow)) in rows.into_iter().enumerate() {
                assert_eq!(lrow.len(), 6);
                assert_eq!(hrow.len(), 2);
                assert_eq!(hrow[i], 0, "diagonal of row {i}");
                lrow[5] = i as Dist; // write through the view
            }
        }
        assert_eq!(l.label(0, 5), 0);
        assert_eq!(l.label(1, 5), 1);
    }
}
