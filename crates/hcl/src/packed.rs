//! Packed, cache-friendly query-side label layout.
//!
//! The canonical [`Labelling`] stores paged landmark-major rows — the
//! right substrate for batch repair, whose per-landmark passes own one
//! row each. Queries have the opposite access pattern: they read *one
//! vertex's* labels across all landmarks. This module holds the
//! vertex-major mirror served to queries:
//!
//! * [`PackedLabels`] — per vertex, its landmark ids (`u16`,
//!   ascending) and its distances narrowed to the smallest width tier
//!   the row needs (`u8`/`u16`, with a `u32` escape). Most real-world
//!   hop distances fit a byte, so a typical entry costs ~3 bytes
//!   instead of the dense layout's amortized `4·|R| / avg|L(v)|`.
//!   The rows are split into blocks of [`BLOCK_LEN`] vertices, each a
//!   small CSR in its own immutable [`PackedBlock`] cell held by `Arc`.
//! * [`PackedHighway`] — the `|R| × |R|` highway matrix narrowed to one
//!   width tier for the whole matrix, rows contiguous (each row is the
//!   cache block the `via` accumulation streams through), `T::MAX`
//!   encoding the unreachable sentinel.
//!
//! # Sealing and sharing
//!
//! A [`PackedIndex`] is sealed from a `Labelling` when the labelling is
//! built or loaded, and again by the writer's publish step after every
//! repair pass ([`Labelling::seal`]). A re-seal builds new cells only
//! for the blocks the pass wrote; every other cell is the previous
//! mirror's, shared by pointer. Cloning a mirror copies the cell table
//! only. So consecutive generations, and the writer's working buffer,
//! hold one copy of every unchanged block, and a commit costs a seal in
//! proportion to the blocks holding entries it changed, not to `n`.
//!
//! # Width tiers and the clamped SIMD domain
//!
//! Tier selection reserves `T::MAX` in every narrow tier (a row whose
//! largest distance is 255 is promoted to `u16`), so the sentinel value
//! never collides with data. Rows and matrices whose finite values all
//! sit at or below [`CLAMP_SAFE_MAX`] are `clamp_safe`: the SIMD
//! kernels ([`crate::kernel`]) evaluate them in a clamped `u32` domain
//! where the sentinel widens to `CLAMP_INF` and a three-operand Eq. 3
//! sum provably stays below it (see the kernel module docs). Larger
//! (weighted-graph) distances take tier 8 — stored as raw `u32` and
//! evaluated only by the exact scalar `u64` paths.

use crate::kernel::CLAMP_SAFE_MAX;
use crate::labelling::{Labelling, NO_LABEL};
use batchhl_common::{Dist, Vertex, INF};
use std::sync::Arc;

/// Distance width tier of one packed label row: bytes per distance,
/// with `8` marking the exact-only `u32` escape (values above
/// [`CLAMP_SAFE_MAX`], outside the clamped SIMD domain).
pub const TIER_U8: u8 = 1;
pub const TIER_U16: u8 = 2;
pub const TIER_U32: u8 = 4;
pub const TIER_U32_EXACT: u8 = 8;

/// Bytes per stored distance for a tier byte.
#[inline]
pub fn tier_width(tier: u8) -> usize {
    if tier == TIER_U32_EXACT {
        4
    } else {
        tier as usize
    }
}

/// A borrowed slice of width-narrowed distances (one label row's
/// payload, or one highway row).
#[derive(Debug, Clone, Copy)]
pub enum NarrowSlice<'a> {
    U8(&'a [u8]),
    U16(&'a [u16]),
    U32(&'a [u32]),
}

impl<'a> NarrowSlice<'a> {
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            NarrowSlice::U8(s) => s.len(),
            NarrowSlice::U16(s) => s.len(),
            NarrowSlice::U32(s) => s.len(),
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Widen entry `k` without sentinel mapping (label-row payloads:
    /// tier selection guarantees `T::MAX` never appears as data).
    #[inline]
    pub fn get(&self, k: usize) -> Dist {
        match self {
            NarrowSlice::U8(s) => s[k] as Dist,
            NarrowSlice::U16(s) => s[k] as Dist,
            NarrowSlice::U32(s) => s[k],
        }
    }

    /// Widen entry `k`, mapping the tier sentinel `T::MAX` to [`INF`]
    /// (highway rows, where unreachable pairs are stored as sentinel).
    #[inline]
    pub fn get_exact(&self, k: usize) -> Dist {
        match self {
            NarrowSlice::U8(s) => {
                let v = s[k];
                if v == u8::MAX {
                    INF
                } else {
                    v as Dist
                }
            }
            NarrowSlice::U16(s) => {
                let v = s[k];
                if v == u16::MAX {
                    INF
                } else {
                    v as Dist
                }
            }
            NarrowSlice::U32(s) => s[k],
        }
    }

    /// The slice from element `from` on (scalar tails of SIMD loops).
    #[inline]
    pub fn tail(self, from: usize) -> NarrowSlice<'a> {
        match self {
            NarrowSlice::U8(s) => NarrowSlice::U8(&s[from..]),
            NarrowSlice::U16(s) => NarrowSlice::U16(&s[from..]),
            NarrowSlice::U32(s) => NarrowSlice::U32(&s[from..]),
        }
    }
}

/// One vertex's packed label row: landmark ids ascending, distances in
/// the row's width tier. `clamp_safe` is false only for tier-8 rows
/// (distances above [`CLAMP_SAFE_MAX`]), which must take the exact
/// scalar paths.
#[derive(Debug, Clone, Copy)]
pub struct PackedRow<'a> {
    pub ids: &'a [u16],
    pub dists: NarrowSlice<'a>,
    pub clamp_safe: bool,
}

impl PackedRow<'_> {
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Entry `k` as `(landmark index, exact distance)`.
    #[inline]
    pub fn entry(&self, k: usize) -> (u16, Dist) {
        (self.ids[k], self.dists.get(k))
    }
}

/// `log2` of the vertices per mirror block. Only entries whose value
/// a batch changed dirty a block, and they are spread out: at n = 10⁶
/// a 100-edit batch re-seals ≈ 140–300 blocks whether a block holds
/// 32, 64 or 256 vertices. Re-sealing a block reads a 64-distance
/// segment of every landmark row, and a lookup touches one cell;
/// smaller blocks mean a longer cell table to walk and clone. 64 was
/// the fastest commit of the three (see CHANGES.md).
pub const BLOCK_SHIFT: u32 = 6;
/// Vertices per mirror block.
pub const BLOCK_LEN: usize = 1 << BLOCK_SHIFT;
const BLOCK_MASK: usize = BLOCK_LEN - 1;

/// One sealed mirror cell: the packed rows of the [`BLOCK_LEN`]
/// vertices of one block (fewer in the last block). Cells are
/// immutable once sealed and shared by `Arc` between every mirror whose
/// block content is the same.
///
/// A cell is one allocation of `u64` words, so reading a row touches
/// the row's metadata word and the cache lines of its ids and
/// distances, nothing else:
///
/// ```text
/// word 0        len | entries << 16
/// word 1        distance payload bytes
/// word 2 + k    row k: ids byte offset (28 bits) | distances byte
///               offset (28 bits) | width tier (4 bits); row `len` holds
///               the end of the ids region
/// then bytes    u32 distances | u16 ids | u16 distances | u8 distances
/// ```
///
/// Each tier's distances are contiguous and in row order, so a row's
/// distances are one narrow slice, as are its ids (ascending).
#[derive(Debug, PartialEq, Eq)]
pub struct PackedBlock {
    words: Arc<[u64]>,
}

impl Clone for PackedBlock {
    fn clone(&self) -> Self {
        PackedBlock {
            words: Arc::clone(&self.words),
        }
    }

    /// Leaves a cell that already is `source`'s untouched.
    fn clone_from(&mut self, source: &Self) {
        if !self.ptr_eq(source) {
            self.words = Arc::clone(&source.words);
        }
    }
}

const META_WORDS: usize = 2;
const OFF_BITS: u32 = 28;
const OFF_MASK: u64 = (1 << OFF_BITS) - 1;
// The largest cell (every vertex labelled by 65 534 landmarks with 4-byte
// distances) must keep its byte offsets inside `OFF_BITS`.
const _: () = assert!(((META_WORDS + BLOCK_LEN + 1) * 8 + BLOCK_LEN * 65_534 * 6) < 1 << OFF_BITS);

/// Element types a cell's byte regions are read as.
trait Plain: Copy {}
impl Plain for u8 {}
impl Plain for u16 {}
impl Plain for u32 {}

/// `len` values of `T` starting `byte` bytes into `words`.
#[inline]
fn view<T: Plain>(words: &[u64], byte: usize, len: usize) -> &[T] {
    let size = std::mem::size_of::<T>();
    assert!(byte.is_multiple_of(size) && byte + len * size <= words.len() * 8);
    // SAFETY: the range is in bounds (checked above) and aligned for
    // `T` (the base is 8-aligned and `byte` is a multiple of
    // `size_of::<T>() == align_of::<T>()` for u8/u16/u32), every bit
    // pattern is a valid `T`, and the slice borrows `words`.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>().add(byte).cast::<T>(), len) }
}

/// Copy `src` into `words` at `byte` bytes (alignment as for [`view`]).
fn put<T: Plain>(words: &mut [u64], byte: usize, src: &[T]) {
    let size = std::mem::size_of::<T>();
    assert!(byte.is_multiple_of(size) && byte + std::mem::size_of_val(src) <= words.len() * 8);
    // SAFETY: as in `view`; the exclusive borrow of `words` covers the
    // whole destination range.
    let dst = unsafe {
        std::slice::from_raw_parts_mut(
            words.as_mut_ptr().cast::<u8>().add(byte).cast::<T>(),
            src.len(),
        )
    };
    dst.copy_from_slice(src);
}

impl PackedBlock {
    /// Seal vertices `lo..hi` of `lab` (one block). Two branch-free
    /// passes over the block's segment of every landmark row: count +
    /// per-row max, then scatter each present entry to its row's next
    /// slot (absent ones to a spare slot past the end). Ids come out
    /// ascending per row because landmarks are visited in order; each
    /// row's distances are then narrowed to its tier. Label presence is
    /// close to a coin flip, so a branch per entry mispredicts often:
    /// at n = 10⁶ the masked select cut the full seal from ≈ 230 ms to
    /// ≈ 100 ms.
    fn seal<'a>(lab: &'a Labelling, lo: usize, hi: usize, scratch: &mut SealScratch<'a>) -> Self {
        let len = hi - lo;
        let SealScratch {
            segments,
            ids,
            dists,
            d8,
            d16,
            d32,
        } = scratch;
        segments.clear();
        segments.extend((0..lab.num_landmarks()).map(|i| lab.label_row(i).segment(lo, hi)));
        let mut counts = [0u32; BLOCK_LEN];
        let mut row_max = [0 as Dist; BLOCK_LEN];
        for seg in segments.iter() {
            for ((c, m), &d) in counts.iter_mut().zip(row_max.iter_mut()).zip(*seg) {
                let present = u32::from(d != NO_LABEL);
                *c += present;
                *m = (*m).max(d & present.wrapping_neg());
            }
        }
        let mut offsets = [0u32; BLOCK_LEN + 1];
        for k in 0..len {
            offsets[k + 1] = offsets[k] + counts[k];
        }
        let entries = offsets[len] as usize;
        let spare = entries as u32;
        ids.clear();
        ids.resize(entries + 1, 0);
        dists.clear();
        dists.resize(entries + 1, 0);
        let mut fill = [0u32; BLOCK_LEN];
        fill.copy_from_slice(&offsets[..BLOCK_LEN]);
        let (id_slots, dist_slots) = (&mut ids[..], &mut dists[..]);
        for (i, seg) in segments.iter().enumerate() {
            for (f, &d) in fill.iter_mut().zip(*seg) {
                let present = d != NO_LABEL;
                let keep = u32::from(present).wrapping_neg();
                let at = ((*f & keep) | (spare & !keep)) as usize;
                id_slots[at] = i as u16;
                dist_slots[at] = d;
                *f += u32::from(present);
            }
        }
        ids.truncate(entries);
        d8.clear();
        d16.clear();
        d32.clear();
        // Per row: (tier, index into the tier's distances).
        let mut meta = [(0u8, 0usize); BLOCK_LEN];
        for (k, slot) in meta[..len].iter_mut().enumerate() {
            let row = &dists[offsets[k] as usize..offsets[k + 1] as usize];
            let tier = tier_for_max(row_max[k]);
            *slot = match tier {
                TIER_U8 => {
                    d8.extend(row.iter().map(|&d| d as u8));
                    (tier, d8.len() - row.len())
                }
                TIER_U16 => {
                    d16.extend(row.iter().map(|&d| d as u16));
                    (tier, d16.len() - row.len())
                }
                _ => {
                    d32.extend_from_slice(row);
                    (tier, d32.len() - row.len())
                }
            };
        }

        let at32 = (META_WORDS + len + 1) * 8;
        let at_ids = at32 + 4 * d32.len();
        let at16 = at_ids + 2 * ids.len();
        let at8 = at16 + 2 * d16.len();
        let mut words = vec![0u64; (at8 + d8.len()).div_ceil(8)];
        words[0] = len as u64 | (ids.len() as u64) << 16;
        words[1] = (d8.len() + 2 * d16.len() + 4 * d32.len()) as u64;
        for (k, &(tier, di)) in meta[..len].iter().enumerate() {
            let ids_at = at_ids + 2 * offsets[k] as usize;
            let dists_at = match tier {
                TIER_U8 => at8 + di,
                TIER_U16 => at16 + 2 * di,
                _ => at32 + 4 * di,
            };
            words[META_WORDS + k] =
                ids_at as u64 | (dists_at as u64) << OFF_BITS | u64::from(tier) << (2 * OFF_BITS);
        }
        words[META_WORDS + len] = (at_ids + 2 * entries) as u64;
        put(&mut words, at32, d32);
        put(&mut words, at_ids, ids);
        put(&mut words, at16, d16);
        put(&mut words, at8, d8);
        PackedBlock {
            words: words.into(),
        }
    }

    /// Vertices in the block.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        (self.words[0] & 0xFFFF) as usize
    }

    /// Logical label entries in the block.
    #[inline]
    pub fn num_entries(&self) -> usize {
        (self.words[0] >> 16) as usize
    }

    /// Bytes of narrowed distance payload.
    pub fn dist_bytes(&self) -> usize {
        self.words[1] as usize
    }

    /// Resident bytes of the cell (one allocation).
    pub fn resident_bytes(&self) -> usize {
        self.words.len() * 8 + 16
    }

    /// Whether `self` and `other` are the same shared cell.
    #[inline]
    pub fn ptr_eq(&self, other: &PackedBlock) -> bool {
        Arc::ptr_eq(&self.words, &other.words)
    }

    #[inline]
    fn tier(&self, k: usize) -> u8 {
        (self.words[META_WORDS + k] >> (2 * OFF_BITS)) as u8
    }

    #[inline]
    fn row(&self, k: usize) -> PackedRow<'_> {
        let meta = self.words[META_WORDS + k];
        let ids_at = (meta & OFF_MASK) as usize;
        let len = ((self.words[META_WORDS + k + 1] & OFF_MASK) as usize - ids_at) / 2;
        let dists_at = ((meta >> OFF_BITS) & OFF_MASK) as usize;
        let tier = (meta >> (2 * OFF_BITS)) as u8;
        let w = &*self.words;
        let dists = match tier {
            TIER_U8 => NarrowSlice::U8(view(w, dists_at, len)),
            TIER_U16 => NarrowSlice::U16(view(w, dists_at, len)),
            _ => NarrowSlice::U32(view(w, dists_at, len)),
        };
        PackedRow {
            ids: view(w, ids_at, len),
            dists,
            clamp_safe: tier != TIER_U32_EXACT,
        }
    }
}

/// Buffers one seal reuses across the blocks it builds.
#[derive(Default)]
struct SealScratch<'a> {
    segments: Vec<&'a [Dist]>,
    ids: Vec<u16>,
    dists: Vec<Dist>,
    d8: Vec<u8>,
    d16: Vec<u16>,
    d32: Vec<u32>,
}

/// Vertex-major packed rows over the logical label entries, one shared
/// [`PackedBlock`] cell per block of [`BLOCK_LEN`] vertices (see
/// module docs).
#[derive(Debug, PartialEq, Eq)]
pub struct PackedLabels {
    r: usize,
    n: usize,
    blocks: Vec<PackedBlock>,
    entries: usize,
    dist_bytes: usize,
}

impl Clone for PackedLabels {
    fn clone(&self) -> Self {
        PackedLabels {
            r: self.r,
            n: self.n,
            blocks: self.blocks.clone(),
            entries: self.entries,
            dist_bytes: self.dist_bytes,
        }
    }

    /// Cell by cell (see [`PackedBlock::clone_from`]): a mirror that
    /// shares most cells with `source` only swaps the ones that differ.
    fn clone_from(&mut self, source: &Self) {
        self.r = source.r;
        self.n = source.n;
        self.blocks.clone_from(&source.blocks);
        self.entries = source.entries;
        self.dist_bytes = source.dist_bytes;
    }
}

/// Pick the width tier for one row's maximum finite distance. The
/// `TIER_U32` / `TIER_U32_EXACT` boundary is [`CLAMP_SAFE_MAX`], not
/// `CLAMP_INF`: three clamp-safe operands must sum below `CLAMP_INF`
/// for the kernels' sentinel to stay unambiguous (`kernel` module
/// docs). Both tiers serialize 4-byte-wide; only the query routing
/// differs.
#[inline]
fn tier_for_max(max: Dist) -> u8 {
    if max < u8::MAX as Dist {
        TIER_U8
    } else if max < u16::MAX as Dist {
        TIER_U16
    } else if max <= CLAMP_SAFE_MAX {
        TIER_U32
    } else {
        TIER_U32_EXACT
    }
}

impl PackedLabels {
    /// Seal every block of `lab` afresh.
    pub fn build(lab: &Labelling) -> Self {
        Self::reseal(lab, None).0
    }

    /// Seal `lab`, taking from `carry` (the mirror `lab` was last
    /// sealed with) every cell whose block no write has touched since,
    /// and sealing the rest. Returns the mirror and the number of
    /// blocks sealed.
    pub(crate) fn reseal(lab: &Labelling, carry: Option<PackedLabels>) -> (Self, usize) {
        let n = lab.num_vertices();
        let dirty = lab.dirty_blocks();
        let mut resealed = 0;
        let mut scratch = SealScratch::default();
        // Clean cells move from the carry into the new mirror. A cell
        // is reused only if its block also kept its extent (growth
        // extends the last block), judged from the carry's vertex count
        // so clean cells are never read.
        let (carry_n, mut entries, mut dist_bytes) = carry
            .as_ref()
            .map_or((0, 0, 0), |c| (c.n, c.entries, c.dist_bytes));
        let mut old = carry.map(|c| c.blocks.into_iter());
        let mut blocks = Vec::with_capacity(n.div_ceil(BLOCK_LEN));
        for b in 0..n.div_ceil(BLOCK_LEN) {
            let (lo, hi) = (b * BLOCK_LEN, ((b + 1) * BLOCK_LEN).min(n));
            let clean = dirty[b / 64] & (1 << (b % 64)) == 0;
            let same_extent = ((b + 1) * BLOCK_LEN).min(carry_n) == hi;
            let cell = match old.as_mut().and_then(Iterator::next) {
                Some(cell) if clean && same_extent => cell,
                stale => {
                    if let Some(stale) = stale {
                        entries -= stale.num_entries();
                        dist_bytes -= stale.dist_bytes();
                    }
                    resealed += 1;
                    let cell = PackedBlock::seal(lab, lo, hi, &mut scratch);
                    entries += cell.num_entries();
                    dist_bytes += cell.dist_bytes();
                    cell
                }
            };
            blocks.push(cell);
        }
        for stale in old.into_iter().flatten() {
            entries -= stale.num_entries();
            dist_bytes -= stale.dist_bytes();
        }
        let mirror = PackedLabels {
            r: lab.num_landmarks(),
            n,
            blocks,
            entries,
            dist_bytes,
        };
        (mirror, resealed)
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn num_landmarks(&self) -> usize {
        self.r
    }

    /// Total logical label entries, `Σ_v |L(v)|`.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.entries
    }

    /// The sealed cells, block by block (sharing checks and residency
    /// counts).
    #[inline]
    pub fn blocks(&self) -> &[PackedBlock] {
        &self.blocks
    }

    /// Width tier of row `v`.
    #[inline]
    pub fn row_tier(&self, v: Vertex) -> u8 {
        let v = v as usize;
        self.blocks[v >> BLOCK_SHIFT].tier(v & BLOCK_MASK)
    }

    /// The packed label row of `v`.
    #[inline]
    pub fn row(&self, v: Vertex) -> PackedRow<'_> {
        let v = v as usize;
        self.blocks[v >> BLOCK_SHIFT].row(v & BLOCK_MASK)
    }

    /// Bytes of narrowed distance payload (the serialized dist blob).
    pub fn dist_bytes(&self) -> usize {
        self.dist_bytes
    }

    /// Resident bytes of the packed structure (payload + CSR overhead
    /// of every cell, plus the cell table).
    pub fn resident_bytes(&self) -> usize {
        self.blocks.len() * 16
            + self
                .blocks
                .iter()
                .map(|c| c.resident_bytes())
                .sum::<usize>()
    }
}

/// The highway matrix narrowed to one width tier (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedHighway {
    r: usize,
    data: HighwayData,
    clamp_safe: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum HighwayData {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl PackedHighway {
    /// Narrow the dense highway matrix of `lab`. `INF` maps to the
    /// tier sentinel `T::MAX`; the tier is chosen so no finite entry
    /// collides with it.
    pub fn build(lab: &Labelling) -> Self {
        let r = lab.num_landmarks();
        let mut max = 0 as Dist;
        for i in 0..r {
            for j in 0..r {
                let h = lab.highway(i, j);
                if h != INF && h > max {
                    max = h;
                }
            }
        }
        let entry = |i: usize, j: usize| lab.highway(i, j);
        let cells = (0..r).flat_map(|i| (0..r).map(move |j| (i, j)));
        let data = if max < u8::MAX as Dist {
            HighwayData::U8(
                cells
                    .map(|(i, j)| {
                        let h = entry(i, j);
                        if h == INF {
                            u8::MAX
                        } else {
                            h as u8
                        }
                    })
                    .collect(),
            )
        } else if max < u16::MAX as Dist {
            HighwayData::U16(
                cells
                    .map(|(i, j)| {
                        let h = entry(i, j);
                        if h == INF {
                            u16::MAX
                        } else {
                            h as u16
                        }
                    })
                    .collect(),
            )
        } else {
            HighwayData::U32(cells.map(|(i, j)| entry(i, j)).collect())
        };
        PackedHighway {
            r,
            data,
            clamp_safe: max <= CLAMP_SAFE_MAX,
        }
    }

    #[inline]
    pub fn num_landmarks(&self) -> usize {
        self.r
    }

    /// Bytes per stored highway entry (1, 2 or 4).
    pub fn width(&self) -> u8 {
        match self.data {
            HighwayData::U8(_) => 1,
            HighwayData::U16(_) => 2,
            HighwayData::U32(_) => 4,
        }
    }

    /// Whether every finite entry sits at or below [`CLAMP_SAFE_MAX`]
    /// (the SIMD kernels' clamped domain).
    #[inline]
    pub fn clamp_safe(&self) -> bool {
        self.clamp_safe
    }

    /// Row `i` of the matrix — one contiguous cache block.
    #[inline]
    pub fn row(&self, i: usize) -> NarrowSlice<'_> {
        let lo = i * self.r;
        let hi = lo + self.r;
        match &self.data {
            HighwayData::U8(d) => NarrowSlice::U8(&d[lo..hi]),
            HighwayData::U16(d) => NarrowSlice::U16(&d[lo..hi]),
            HighwayData::U32(d) => NarrowSlice::U32(&d[lo..hi]),
        }
    }

    /// Exact `δ_H(r_i, r_j)` (`INF` for the sentinel).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Dist {
        let k = i * self.r + j;
        match &self.data {
            HighwayData::U8(d) => {
                let v = d[k];
                if v == u8::MAX {
                    INF
                } else {
                    v as Dist
                }
            }
            HighwayData::U16(d) => {
                let v = d[k];
                if v == u16::MAX {
                    INF
                } else {
                    v as Dist
                }
            }
            HighwayData::U32(d) => d[k],
        }
    }

    /// Resident bytes of the narrowed matrix.
    pub fn resident_bytes(&self) -> usize {
        self.r * self.r * self.width() as usize
    }
}

/// The packed query-side mirror of one `Labelling` generation.
#[derive(Debug, PartialEq, Eq)]
pub struct PackedIndex {
    pub labels: PackedLabels,
    pub highway: PackedHighway,
}

impl Clone for PackedIndex {
    fn clone(&self) -> Self {
        PackedIndex {
            labels: self.labels.clone(),
            highway: self.highway.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.labels.clone_from(&source.labels);
        self.highway.clone_from(&source.highway);
    }
}

impl PackedIndex {
    /// Seal every block of `lab` afresh.
    pub fn build(lab: &Labelling) -> Self {
        Self::reseal(lab, None).0
    }

    /// Seal `lab`, sharing every clean cell of `carry` (see
    /// [`PackedLabels`]); the highway matrix is narrowed again in full
    /// (`|R|²` entries). Returns the mirror and the number of blocks
    /// sealed.
    pub(crate) fn reseal(lab: &Labelling, carry: Option<PackedIndex>) -> (Self, usize) {
        let (labels, resealed) = PackedLabels::reseal(lab, carry.map(|c| c.labels));
        let mirror = PackedIndex {
            labels,
            highway: PackedHighway::build(lab),
        };
        (mirror, resealed)
    }

    /// Total resident bytes (labels + highway).
    pub fn resident_bytes(&self) -> usize {
        self.labels.resident_bytes() + self.highway.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(extra: &[(usize, Vertex, Dist)]) -> Labelling {
        let mut l = Labelling::empty(6, vec![0, 3]).unwrap();
        l.set_highway_sym(0, 1, 2);
        l.set_label(0, 1, 1);
        l.set_label(0, 2, 1);
        l.set_label(1, 2, 1);
        l.set_label(1, 4, 1);
        for &(i, v, d) in extra {
            l.set_label(i, v, d);
        }
        l
    }

    #[test]
    fn packed_rows_mirror_dense_entries() {
        let l = sample(&[]);
        let p = PackedIndex::build(&l);
        assert_eq!(p.labels.num_entries(), l.size_entries());
        for v in 0..6u32 {
            let row = p.labels.row(v);
            let want: Vec<(u16, Dist)> = l.label_entries(v).map(|(i, d)| (i as u16, d)).collect();
            let got: Vec<(u16, Dist)> = (0..row.len()).map(|k| row.entry(k)).collect();
            assert_eq!(got, want, "row {v}");
            // Ids strictly ascending.
            assert!(row.ids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn highway_narrowing_is_lossless() {
        let l = sample(&[]);
        let p = PackedHighway::build(&l);
        assert_eq!(p.width(), 1);
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(p.get(i, j), l.highway(i, j));
            }
        }
        // An INF entry survives as INF (two landmarks, disconnected).
        let l2 = Labelling::empty(4, vec![0, 1]).unwrap();
        let p2 = PackedHighway::build(&l2);
        assert_eq!(p2.get(0, 1), INF);
        assert_eq!(p2.get(0, 0), 0);
    }

    #[test]
    fn tier_boundaries_promote_rows() {
        // 254 stays u8; 255 promotes to u16; 65535 promotes to u32;
        // anything past CLAMP_SAFE_MAX promotes to the exact escape
        // tier (three such values must sum below CLAMP_INF).
        let cases = [
            (254, TIER_U8),
            (255, TIER_U16),
            (65_534, TIER_U16),
            (65_535, TIER_U32),
            (CLAMP_SAFE_MAX, TIER_U32),
            (CLAMP_SAFE_MAX + 1, TIER_U32_EXACT),
            (INF - 1, TIER_U32_EXACT),
        ];
        for (d, want_tier) in cases {
            let l = sample(&[(0, 5, d)]);
            let p = PackedLabels::build(&l);
            assert_eq!(p.row_tier(5), want_tier, "distance {d}");
            let row = p.row(5);
            assert_eq!(row.entry(0), (0, d));
            assert_eq!(row.clamp_safe, want_tier != TIER_U32_EXACT);
        }
    }

    #[test]
    fn highway_tiers_promote_like_rows() {
        for (d, want_width, want_safe) in [
            (254, 1u8, true),
            (255, 2, true),
            (65_535, 4, true),
            (CLAMP_SAFE_MAX, 4, true),
            (CLAMP_SAFE_MAX + 1, 4, false),
        ] {
            let mut l = Labelling::empty(4, vec![0, 1]).unwrap();
            l.set_highway_sym(0, 1, d);
            let p = PackedHighway::build(&l);
            assert_eq!(p.width(), want_width, "highway {d}");
            assert_eq!(p.clamp_safe(), want_safe);
            assert_eq!(p.get(0, 1), d);
        }
    }

    #[test]
    fn packed_is_denser_than_dense_rows() {
        let mut l = Labelling::empty(100, (0..10).collect()).unwrap();
        for v in 0..100u32 {
            l.set_label((v % 10) as usize, v, 1 + v % 7);
        }
        let p = PackedIndex::build(&l);
        let dense = 10 * 100 * 4 + 10 * 10 * 4;
        assert!(
            p.resident_bytes() < dense / 2,
            "{} vs {dense}",
            p.resident_bytes()
        );
    }
}
