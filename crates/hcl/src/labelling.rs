//! Labelling storage and the landmark-distance oracle.
//!
//! Layout: one dense row per landmark holding either the label distance
//! or the [`NO_LABEL`] sentinel, plus a dense `|R| × |R|` highway
//! matrix. Landmark-major rows make (a) per-landmark repair a
//! one-row affair, and (b) the landmark-level parallelism of BHLₚ
//! lock-free (threads own disjoint rows).
//!
//! # Copy-on-write pages
//!
//! Each row is a [`LabelRow`]: fixed pages of [`PAGE_LEN`] distances,
//! each held by an `Arc`. Cloning a labelling copies page pointers
//! only, and a write goes through `Arc::make_mut`, so it copies just
//! the page it lands in, and only if another labelling still shares
//! that page. Writes that leave a distance unchanged are skipped and
//! copy nothing, and page positions that never held a label share one
//! process-wide blank page. The live system keeps several labellings:
//!
//! * the published generation `Γ` (immutable, shared with readers
//!   through [`crate::store::LabelStore`]),
//! * the writer's working buffer `Γ′`, which batch repair writes, and
//! * older generations that readers still pin.
//!
//! They share every page that no batch has written since they diverged.
//! One resident labelling plus the pages recent batches changed is what
//! all of them cost together. See the `batchhl-core` crate docs for the
//! generation and reader architecture.
//!
//! The *logical* labelling, the set of `(landmark, dist)` pairs at
//! non-sentinel slots, is exactly the paper's minimal highway cover
//! labelling; sizes are reported over logical entries.
//!
//! # The query mirror
//!
//! Queries read through a second, derived layout: the packed
//! vertex-major mirror of [`crate::packed`], split into blocks of
//! [`crate::packed::BLOCK_LEN`] vertices with one shared sealed cell
//! per block. Every write marks its block dirty. [`Labelling::seal`]
//! (called by builders, loaders and the writer's publish step) re-seals
//! only the dirty blocks and shares every other cell with the mirror the
//! labelling was last sealed with, so consecutive generations share all
//! the cells a batch did not touch. A labelling that was mutated and not
//! sealed again seals the same way on its first [`Labelling::packed`]
//! call; published generations never take that path.

use crate::packed::{PackedIndex, BLOCK_SHIFT};
use crate::query::LabelView;
use batchhl_common::{Dist, Vertex, INF};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Sentinel stored in a label row when the vertex holds no label for
/// that landmark (either unreachable or covered via another landmark).
pub const NO_LABEL: Dist = INF;

/// Sentinel in the vertex → landmark-index map.
const NOT_LANDMARK: u16 = u16::MAX;

/// `log2` of the distances per dense label page: 1 024 distances, a
/// 4 KiB page. At n = 10⁶ with 20 landmarks a labelling is 19 540
/// pages, and a 100-edit batch copies ≈ 380 of them (≈ 1.5 MiB) at
/// 256-, 1 024- and 4 096-entry pages alike: the entries a batch
/// changes are spread out. Smaller pages cost more pointers to clone
/// and compare per commit, larger ones copy more bytes per write and
/// keep more memory per pinned generation; 1 024 was the fastest
/// commit of the three (see CHANGES.md).
pub const PAGE_SHIFT: u32 = 10;
/// Distances per dense label page.
pub const PAGE_LEN: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: usize = PAGE_LEN - 1;

// A mirror block must lie inside one page, so sealing a block reads
// one contiguous segment of every row.
const _: () = assert!(BLOCK_SHIFT <= PAGE_SHIFT);

/// One page of a dense label row. Slots past the row's length hold
/// [`NO_LABEL`].
pub type Page = [Dist; PAGE_LEN];

/// One landmark's label row `Γ.L(r_i, ·)` as copy-on-write pages (see
/// the module docs).
#[derive(Debug)]
pub struct LabelRow {
    len: usize,
    pages: Vec<Arc<Page>>,
    /// Bitset over mirror blocks: the blocks this row wrote since the
    /// labelling's mirror was last sealed.
    dirty: Vec<u64>,
    /// Pages this row copied on write since the last seal.
    copied: usize,
}

impl Clone for LabelRow {
    fn clone(&self) -> Self {
        LabelRow {
            len: self.len,
            pages: self.pages.clone(),
            dirty: self.dirty.clone(),
            copied: self.copied,
        }
    }

    /// Point `self` at `source`'s pages, touching only the pages that
    /// differ: bringing a buffer up to a generation that shares most of
    /// its pages costs a pointer compare per page plus reference-count
    /// updates for the changed ones.
    fn clone_from(&mut self, source: &Self) {
        self.len = source.len;
        self.pages.truncate(source.pages.len());
        let common = self.pages.len();
        for (dst, src) in self.pages.iter_mut().zip(&source.pages) {
            if !Arc::ptr_eq(dst, src) {
                *dst = Arc::clone(src);
            }
        }
        self.pages.extend_from_slice(&source.pages[common..]);
        self.dirty.clone_from(&source.dirty);
        self.copied = source.copied;
    }
}

impl PartialEq for LabelRow {
    fn eq(&self, other: &Self) -> bool {
        // `Arc<Page>` equality short-cuts on shared pages.
        self.len == other.len && self.pages == other.pages
    }
}

impl Eq for LabelRow {}

/// The process-wide page of absent labels. Every page position no label
/// was ever written to shares it, so a page is allocated only when a
/// label is written into it (the static's own reference makes that
/// first write copy).
fn blank_page() -> Arc<Page> {
    static BLANK: OnceLock<Arc<Page>> = OnceLock::new();
    Arc::clone(BLANK.get_or_init(|| Arc::new([NO_LABEL; PAGE_LEN])))
}

fn dirty_words(n: usize) -> usize {
    (n >> BLOCK_SHIFT).div_ceil(64) + 1
}

impl LabelRow {
    /// A row of `n` absent labels, every page the blank one.
    pub(crate) fn absent(n: usize) -> Self {
        LabelRow {
            len: n,
            pages: vec![blank_page(); n.div_ceil(PAGE_LEN)],
            dirty: vec![0; dirty_words(n)],
            copied: 0,
        }
    }

    /// A row sharing every page with `self`, with no writes recorded
    /// (the starting point of a detached what-if repair).
    pub fn fork(&self) -> Self {
        LabelRow {
            len: self.len,
            pages: self.pages.clone(),
            dirty: vec![0; self.dirty.len()],
            copied: 0,
        }
    }

    /// Number of vertices the row covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The label of `v` ([`NO_LABEL`] if absent). `v` must be below
    /// the padded page range.
    #[inline]
    pub fn get(&self, v: Vertex) -> Dist {
        let v = v as usize;
        self.pages[v >> PAGE_SHIFT][v & PAGE_MASK]
    }

    /// The label of `v`, [`NO_LABEL`] for any `v` past the row.
    #[inline]
    pub fn get_or_absent(&self, v: Vertex) -> Dist {
        if (v as usize) < self.len {
            self.get(v)
        } else {
            NO_LABEL
        }
    }

    /// Write the label of `v`. A write that changes nothing is skipped;
    /// otherwise the page is copied first if another row shares it, and
    /// `v`'s mirror block is marked dirty.
    #[inline]
    pub fn set(&mut self, v: Vertex, d: Dist) {
        let v = v as usize;
        debug_assert!(v < self.len, "vertex {v} past row length {}", self.len);
        let page = &mut self.pages[v >> PAGE_SHIFT];
        if page[v & PAGE_MASK] == d {
            return;
        }
        // Pages never have weak references, so a strong count above one
        // is exactly the case in which `make_mut` copies.
        if Arc::strong_count(page) > 1 {
            self.copied += 1;
        }
        Arc::make_mut(page)[v & PAGE_MASK] = d;
        let b = v >> BLOCK_SHIFT;
        self.dirty[b / 64] |= 1 << (b % 64);
    }

    /// The row's pages, for sharing checks and residency counts.
    #[inline]
    pub fn pages(&self) -> &[Arc<Page>] {
        &self.pages
    }

    /// Whether the row wrote anything since the last seal (or fork).
    pub fn is_dirty(&self) -> bool {
        self.dirty.iter().any(|&w| w != 0)
    }

    /// Labels of vertices `lo..hi`, which must lie in one page.
    #[inline]
    pub(crate) fn segment(&self, lo: usize, hi: usize) -> &[Dist] {
        debug_assert_eq!(lo >> PAGE_SHIFT, (hi - 1) >> PAGE_SHIFT);
        let off = lo & PAGE_MASK;
        &self.pages[lo >> PAGE_SHIFT][off..off + (hi - lo)]
    }

    /// Labels of all vertices, in order.
    pub fn iter(&self) -> impl Iterator<Item = Dist> + '_ {
        self.pages
            .iter()
            .flat_map(|p| p.iter().copied())
            .take(self.len)
    }

    /// Grow the row to `n` vertices, the new pages blank.
    pub(crate) fn grow(&mut self, n: usize) {
        self.len = n;
        self.pages.resize(n.div_ceil(PAGE_LEN), blank_page());
        self.dirty.resize(dirty_words(n), 0);
    }

    fn clear_marks(&mut self) {
        self.dirty.fill(0);
        self.copied = 0;
    }

    pub(crate) fn dirty_bits(&self) -> &[u64] {
        &self.dirty
    }
}

/// One landmark's mutable label row paired with its highway row.
pub type RowPair<'a> = (&'a mut LabelRow, &'a mut [Dist]);

/// What one [`Labelling::seal`] changed since the previous seal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SealStats {
    /// Dense pages copied on write.
    pub pages_copied: usize,
    /// Mirror blocks sealed afresh (every other cell is shared with
    /// the previous mirror).
    pub blocks_resealed: usize,
}

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
/// The paged landmark-major rows are the canonical, mutable substrate
/// (batch repair owns disjoint rows). `packed` is the sealed
/// vertex-major query mirror ([`PackedIndex`]); between a mutation and
/// the next seal it is empty and `carry` holds the previous mirror,
/// whose clean cells the seal reuses. Equality ignores both.
#[derive(Debug)]
pub struct Labelling {
    /// Landmarks in selection order; `landmarks[i]` is the vertex id of
    /// landmark `i`.
    landmarks: Vec<Vertex>,
    /// Inverse map: `lm_index[v] == i` iff `landmarks[i] == v`. Shared
    /// between clones until the vertex set grows.
    lm_index: Arc<[u16]>,
    /// `rows[i].get(v)`: the `r_i`-label of `v`, or [`NO_LABEL`].
    rows: Vec<LabelRow>,
    /// Row-major `|R| × |R|` matrix of exact landmark distances.
    highway: Vec<Dist>,
    /// The sealed packed query mirror (see [`crate::packed`]).
    packed: OnceLock<PackedIndex>,
    /// The mirror last sealed before the pending mutations.
    carry: Option<PackedIndex>,
}

impl Clone for Labelling {
    fn clone(&self) -> Self {
        Labelling {
            landmarks: self.landmarks.clone(),
            lm_index: Arc::clone(&self.lm_index),
            rows: self.rows.clone(),
            highway: self.highway.clone(),
            packed: self.packed.clone(),
            carry: self.carry.clone(),
        }
    }

    /// Make `self` equal to `source` while touching only what differs:
    /// page pointers and mirror cells that both already share are left
    /// alone (see [`LabelRow::clone_from`]). This is how the writer's
    /// recycled buffer takes on a freshly published generation.
    fn clone_from(&mut self, source: &Self) {
        self.landmarks.clone_from(&source.landmarks);
        if !Arc::ptr_eq(&self.lm_index, &source.lm_index) {
            self.lm_index = Arc::clone(&source.lm_index);
        }
        self.rows.clone_from(&source.rows);
        self.highway.clone_from(&source.highway);
        match (self.packed.get_mut(), source.packed.get()) {
            (Some(dst), Some(src)) => dst.clone_from(src),
            _ => self.packed = source.packed.clone(),
        }
        self.carry.clone_from(&source.carry);
    }
}

impl PartialEq for Labelling {
    fn eq(&self, other: &Self) -> bool {
        // The mirror is derived state: two labellings are equal iff
        // their logical content is, sealed or not.
        self.landmarks == other.landmarks
            && self.lm_index == other.lm_index
            && self.rows == other.rows
            && self.highway == other.highway
    }
}

impl Eq for Labelling {}

impl Labelling {
    /// An empty labelling (no labels, infinite highway) over `n`
    /// vertices with the given landmarks. Construction fills it in.
    /// Every row starts on one shared blank page, so pages are
    /// allocated only where labels are written.
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
            lm_index: lm_index.into(),
            rows: (0..r).map(|_| LabelRow::absent(n)).collect(),
            highway,
            packed: OnceLock::new(),
            carry: None,
        })
    }

    /// Assemble a labelling from externally loaded parts (e.g. the
    /// persistence layer): paged label rows (one per landmark, each of
    /// length `n`, [`NO_LABEL`] marking absent entries) and a row-major
    /// `r × r` highway matrix. The result is sealed.
    ///
    /// Validates the landmark set exactly like [`Labelling::empty`],
    /// checks every dimension against `n`/`r`, and requires a zero
    /// highway diagonal — loaders get a typed error instead of an index
    /// that panics later.
    pub fn from_parts(
        n: usize,
        landmarks: Vec<Vertex>,
        rows: Vec<LabelRow>,
        highway: Vec<Dist>,
    ) -> Result<Self, LabelError> {
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
        let mut lab = Labelling {
            landmarks,
            lm_index: lm_index.into(),
            rows,
            highway,
            packed: OnceLock::new(),
            carry: None,
        };
        lab.seal();
        Ok(lab)
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
        self.rows[i].get(v)
    }

    #[inline]
    pub fn set_label(&mut self, i: usize, v: Vertex, d: Dist) {
        self.invalidate();
        self.rows[i].set(v, d);
    }

    #[inline]
    pub fn remove_label(&mut self, i: usize, v: Vertex) {
        self.set_label(i, v, NO_LABEL);
    }

    /// Full label row of landmark `i`.
    #[inline]
    pub fn label_row(&self, i: usize) -> &LabelRow {
        &self.rows[i]
    }

    /// Highway distance `δ_H(r_i, r_j)`.
    #[inline]
    pub fn highway(&self, i: usize, j: usize) -> Dist {
        self.highway[i * self.landmarks.len() + j]
    }

    /// Highway row `δ_H(r_i, ·)`.
    #[inline]
    pub fn highway_row(&self, i: usize) -> &[Dist] {
        let r = self.landmarks.len();
        &self.highway[i * r..(i + 1) * r]
    }

    /// Write one directed highway entry `δ_H(r_i, r_j) ← d`.
    ///
    /// Deliberately *not* mirrored: on undirected graphs the repair pass
    /// for landmark `j` writes the `(j, i)` entry itself (the two are
    /// affected symmetrically), which keeps landmark-level parallelism
    /// write-disjoint. Use [`Labelling::set_highway_sym`] elsewhere.
    #[inline]
    pub fn set_highway_row(&mut self, i: usize, j: usize, d: Dist) {
        self.invalidate();
        let r = self.landmarks.len();
        self.highway[i * r + j] = d;
    }

    /// Write a symmetric highway entry (construction on undirected
    /// graphs).
    #[inline]
    pub fn set_highway_sym(&mut self, i: usize, j: usize, d: Dist) {
        self.invalidate();
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
            let ls = self.rows[i].get(s);
            if ls == NO_LABEL {
                continue;
            }
            for (j, &h) in self.highway_row(i).iter().enumerate() {
                if h == INF {
                    continue;
                }
                let lt = self.rows[j].get(t);
                if lt == NO_LABEL {
                    continue;
                }
                best = best.min(ls as u64 + h as u64 + lt as u64);
            }
        }
        best.min(u64::from(INF)) as Dist
    }

    /// The packed vertex-major query mirror (see [`crate::packed`]).
    /// Sealed labellings return it directly; a labelling mutated since
    /// its last seal re-seals its dirty blocks here, once.
    #[inline]
    pub fn packed(&self) -> &PackedIndex {
        self.packed
            .get_or_init(|| PackedIndex::reseal(self, self.carry.clone()).0)
    }

    /// Whether the packed mirror is currently sealed (diagnostics —
    /// memory reports want to know what is resident).
    pub fn packed_is_sealed(&self) -> bool {
        self.packed.get().is_some()
    }

    /// Seal the mirror now, re-sealing only the blocks written since
    /// the last seal, and report (and reset) the pages copied and the
    /// blocks re-sealed since then. Builders, loaders and the writer's
    /// publish step call it, so readers never seal.
    pub fn seal(&mut self) -> SealStats {
        let mut stats = SealStats {
            pages_copied: self.rows.iter().map(|row| row.copied).sum(),
            blocks_resealed: 0,
        };
        let carry = self.carry.take();
        if self.packed.get().is_none() {
            let (mirror, resealed) = PackedIndex::reseal(self, carry);
            stats.blocks_resealed = resealed;
            let _ = self.packed.set(mirror);
        }
        for row in &mut self.rows {
            row.clear_marks();
        }
        stats
    }

    /// Every mutator runs this first: a sealed mirror becomes the carry
    /// whose clean cells the next seal reuses, and write marks restart.
    #[inline]
    fn invalidate(&mut self) {
        if let Some(mirror) = self.packed.take() {
            self.carry = Some(mirror);
            for row in &mut self.rows {
                row.dirty.fill(0);
            }
        }
    }

    /// Bitset over mirror blocks written since the mirror in `carry`
    /// was sealed: the union of every row's write marks.
    pub(crate) fn dirty_blocks(&self) -> Vec<u64> {
        let mut out = vec![0u64; dirty_words(self.num_vertices())];
        for row in &self.rows {
            for (o, &w) in out.iter_mut().zip(row.dirty_bits()) {
                *o |= w;
            }
        }
        out
    }

    /// Resident bytes of the dense landmark-major representation
    /// (label pages + highway + landmark maps), counting every page in
    /// full even where another labelling shares it.
    pub fn dense_resident_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|row| row.pages.len() * (PAGE_LEN * 4 + 8))
            .sum::<usize>()
            + self.highway.len() * 4
            + self.lm_index.len() * 2
            + self.landmarks.len() * 4
    }

    /// Logical label entries of one vertex, `(landmark index, dist)`.
    pub fn label_entries(&self, v: Vertex) -> impl Iterator<Item = (usize, Dist)> + '_ {
        self.rows.iter().enumerate().filter_map(move |(i, row)| {
            let d = row.get(v);
            (d != NO_LABEL).then_some((i, d))
        })
    }

    /// Total number of logical label entries, `Σ_v |L(v)|`.
    pub fn size_entries(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|row| row.pages.iter())
            .map(|page| page.iter().filter(|&&d| d != NO_LABEL).count())
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

    /// Grow the vertex set (new vertices carry no labels; their pages
    /// share one blank page until written).
    pub fn ensure_vertices(&mut self, n: usize) {
        if n <= self.num_vertices() {
            return;
        }
        self.invalidate();
        let mut lm_index = self.lm_index.to_vec();
        lm_index.resize(n, NOT_LANDMARK);
        self.lm_index = lm_index.into();
        for row in &mut self.rows {
            row.grow(n);
        }
    }

    /// Mutable access to one landmark's label row and highway row (the
    /// only parts of `Γ′` that landmark `i`'s repair writes).
    pub fn row_mut(&mut self, i: usize) -> RowPair<'_> {
        self.invalidate();
        let r = self.landmarks.len();
        (&mut self.rows[i], &mut self.highway[i * r..(i + 1) * r])
    }

    /// Disjoint mutable views of every label row together with the
    /// matching highway row, for landmark-parallel repair.
    pub fn rows_mut(&mut self) -> (Vec<RowPair<'_>>, &[Vertex]) {
        self.invalidate();
        let r = self.landmarks.len();
        let out = self
            .rows
            .iter_mut()
            .zip(self.highway.chunks_mut(r.max(1)))
            .collect();
        (out, &self.landmarks)
    }
}

/// Resident label memory of a set of labellings, with every page and
/// mirror cell they share counted once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelResidency {
    /// Labellings measured.
    pub copies: usize,
    /// Distinct dense pages.
    pub pages: usize,
    /// Distinct sealed mirror cells.
    pub blocks: usize,
    /// Bytes of the distinct pages and cells, plus each copy's own
    /// page tables, highway matrices and landmark maps.
    pub bytes: usize,
}

impl LabelResidency {
    /// Measure `labs`, counting shared pages and cells once.
    ///
    /// Labellings share a page only at the same (landmark, page)
    /// position, and a mirror cell only at the same block: clones,
    /// forks, `clone_from` and re-seals all move pointers position by
    /// position. The one exception is the process-wide blank page,
    /// counted once. So each page and cell is compared with the same
    /// position of the labellings measured before it, which costs a few
    /// pointer compares per position and allocates nothing.
    pub fn measure<'a>(labs: impl IntoIterator<Item = &'a Labelling>) -> Self {
        let labs: Vec<&Labelling> = labs.into_iter().collect();
        let blank = blank_page();
        let mut blank_seen = false;
        let mut out = LabelResidency::default();
        for (c, lab) in labs.iter().enumerate() {
            let earlier = &labs[..c];
            out.copies += 1;
            out.bytes += lab.highway.len() * 4 + lab.landmarks.len() * 4;
            if !earlier
                .iter()
                .any(|e| Arc::ptr_eq(&e.lm_index, &lab.lm_index))
            {
                out.bytes += lab.lm_index.len() * 2;
            }
            for (i, row) in lab.rows.iter().enumerate() {
                out.bytes += row.pages.len() * 8;
                for (p, page) in row.pages.iter().enumerate() {
                    let shared = if Arc::ptr_eq(page, &blank) {
                        std::mem::replace(&mut blank_seen, true)
                    } else {
                        earlier.iter().any(|e| {
                            e.rows
                                .get(i)
                                .and_then(|row| row.pages.get(p))
                                .is_some_and(|q| Arc::ptr_eq(q, page))
                        })
                    };
                    if !shared {
                        out.pages += 1;
                        out.bytes += PAGE_LEN * 4;
                    }
                }
            }
            if let Some(mirror) = lab.packed.get() {
                out.bytes += mirror.highway.resident_bytes();
                out.bytes += mirror.labels.blocks().len() * 16;
                for (b, cell) in mirror.labels.blocks().iter().enumerate() {
                    let shared = earlier.iter().any(|e| {
                        e.packed
                            .get()
                            .and_then(|m| m.labels.blocks().get(b))
                            .is_some_and(|other| other.ptr_eq(cell))
                    });
                    if !shared {
                        out.blocks += 1;
                        out.bytes += cell.resident_bytes();
                    }
                }
            }
        }
        out
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
        // Growth past a page boundary appends shared blank pages.
        l.ensure_vertices(3 * PAGE_LEN + 1);
        assert_eq!(l.label_row(0).pages().len(), 4);
        assert!(Arc::ptr_eq(
            &l.label_row(0).pages()[2],
            &l.label_row(1).pages()[3]
        ));
        assert_eq!(l.label(1, 3 * PAGE_LEN as Vertex), NO_LABEL);
        assert_eq!(l.upper_bound(1, 4), 4);
    }

    #[test]
    fn packed_cache_seals_lazily_and_invalidates_on_mutation() {
        let mut l = sample();
        assert!(!l.packed_is_sealed());
        assert_eq!(l.upper_bound(1, 4), 4);
        assert!(l.packed_is_sealed());
        // Mutation drops the mirror; the next query re-seals it and
        // sees the new label (route 1 → r0 → 4 = 1 + 0 + 2).
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
                lrow.set(5, i as Dist); // write through the view
            }
        }
        assert_eq!(l.label(0, 5), 0);
        assert_eq!(l.label(1, 5), 1);
    }

    #[test]
    fn clones_share_pages_until_written() {
        let n = 3 * PAGE_LEN;
        let mut a = Labelling::empty(n, vec![0, 1]).unwrap();
        for v in 2..n as Vertex {
            a.set_label(0, v, 1 + v % 5);
        }
        a.seal();
        let mut b = a.clone();
        let pages = |l: &Labelling, i: usize| l.label_row(i).pages().to_vec();
        // A write copies exactly the one page it lands in.
        b.set_label(0, PAGE_LEN as Vertex + 7, 40);
        // Rewriting a value with itself copies nothing.
        b.set_label(0, 2, a.label(0, 2));
        let stats = b.seal();
        assert_eq!(stats.pages_copied, 1);
        assert_eq!(stats.blocks_resealed, 1, "one dirty mirror block");
        let (pa, pb) = (pages(&a, 0), pages(&b, 0));
        assert!(Arc::ptr_eq(&pa[0], &pb[0]));
        assert!(!Arc::ptr_eq(&pa[1], &pb[1]));
        assert!(Arc::ptr_eq(&pa[2], &pb[2]));
        assert_eq!(
            a.label(0, PAGE_LEN as Vertex + 7),
            1 + (PAGE_LEN as Vertex + 7) % 5
        );
        assert_eq!(b.label(0, PAGE_LEN as Vertex + 7), 40);
        // The re-sealed mirror shares every clean cell with the old one
        // and equals a fresh seal of the new content.
        let (ca, cb) = (a.packed().labels.blocks(), b.packed().labels.blocks());
        let shared = ca.iter().zip(cb).filter(|(x, y)| x.ptr_eq(y)).count();
        assert_eq!(shared, ca.len() - 1);
        assert_eq!(*b.packed(), PackedIndex::build(&b));
        // Two copies cost one labelling plus one page and one cell.
        let both = LabelResidency::measure([&a, &b]);
        let one = LabelResidency::measure([&a]);
        assert_eq!(both.pages, one.pages + 1);
        assert_eq!(both.blocks, one.blocks + 1);
        // Row 1 holds no label: its pages are the one blank page, which
        // counts once however many rows and labellings share it.
        assert_eq!(one.pages, 3 + 1);
        let blank = Labelling::empty(n, vec![0, 1]).unwrap();
        assert_eq!(LabelResidency::measure([&a, &blank]).pages, one.pages);
    }
}
