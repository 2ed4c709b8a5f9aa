//! Byte-level properties of the labelling snapshot decoder
//! (`batchhl_hcl::serde_io::read_labelling`), for the packed `BHL3`
//! block and the legacy dense `BHL1` block.
//!
//! Checkpoints wrap these blocks in a CRC, so the checkpoint fuzzing
//! never hands the decoder a damaged block. Here it gets one directly:
//! a valid block of a random labelling, truncated at a random byte,
//! with a random byte flipped, or both. For every input the decoder
//!
//! * returns, never panics;
//! * fails with a typed `SnapshotError` on every truncation, and on a
//!   flip either fails typed or yields a valid labelling whose mirror
//!   is sealed and exact (an untouched block round-trips byte for
//!   byte);
//! * allocates in proportion to what the stream holds, measured by a
//!   counting allocator on the decoding thread: one 4 KiB label page
//!   per distinct (landmark, page) pair its label entries fall on, plus
//!   at most 64 bytes per input byte and a fixed 1 MiB for chunk
//!   buffers.
//!
//! The damaged blocks come from Barabási–Albert labellings, whose
//! entries crowd into few pages, so for them the pages fit inside the
//! 64 bytes per input byte too. A stream whose entries spread out, one
//! label per vertex on a different landmark row each, costs a page per
//! few entries: as a `BHL3` entry takes at least 3 bytes, that is up to
//! ≈ 1.4 KiB per input byte. The spread-out case checks that bound.

use batchhl::graph::generators::barabasi_albert;
use batchhl::hcl::labelling::PAGE_LEN;
use batchhl::hcl::serde_io::{read_labelling, write_labelling};
use batchhl::hcl::{build_labelling, Labelling, LandmarkSelection, PackedIndex, NO_LABEL};
use batchhl::Vertex;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Counts live heap bytes per thread and remembers the peak.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping
// only touches const-initialized thread locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Decode `bytes`, returning the outcome and the peak extra heap bytes
/// the decoder held on this thread.
fn decode(bytes: &[u8]) -> (std::thread::Result<Option<Labelling>>, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = catch_unwind(AssertUnwindSafe(|| read_labelling(bytes).ok()));
    let peak = PEAK.with(Cell::get) - base;
    (out, peak.max(0) as usize)
}

/// The legacy dense `BHL1` block: magic, n, r, landmark ids, the
/// `r × r` highway and `r` label rows of `n` `u32`s each.
fn write_v1(lab: &Labelling) -> Vec<u8> {
    let mut out = b"BHL1".to_vec();
    out.extend_from_slice(&(lab.num_vertices() as u64).to_le_bytes());
    out.extend_from_slice(&(lab.num_landmarks() as u64).to_le_bytes());
    for &v in lab.landmarks() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for i in 0..lab.num_landmarks() {
        for &h in lab.highway_row(i) {
            out.extend_from_slice(&h.to_le_bytes());
        }
    }
    for i in 0..lab.num_landmarks() {
        for d in lab.label_row(i).iter() {
            out.extend_from_slice(&d.to_le_bytes());
        }
    }
    out
}

fn block(seed: u64, n: usize, k: usize, dense: bool) -> Vec<u8> {
    let g = barabasi_albert(n, 2, seed);
    let lab = build_labelling(&g, LandmarkSelection::TopDegree(k).select(&g)).unwrap();
    if dense {
        write_v1(&lab)
    } else {
        let mut out = Vec::new();
        write_labelling(&lab, &mut out).unwrap();
        out
    }
}

const SLACK: usize = 1 << 20;

/// What a decode of some bytes must come to.
#[derive(Clone, Copy, PartialEq)]
enum Expect {
    /// The untouched block: decodes and re-encodes to the same bytes.
    RoundTrip,
    /// A truncated block: a typed error.
    Fail,
    /// Anything else: a typed error or a valid, sealed labelling.
    Either,
}

fn check(bytes: &[u8], expect: Expect) {
    let (out, peak) = decode(bytes);
    let decoded = out.expect("the decoder must not panic");
    assert!(
        peak <= 64 * bytes.len() + SLACK,
        "{peak} bytes allocated for a {}-byte input",
        bytes.len()
    );
    match (decoded, expect) {
        (None, Expect::RoundTrip) => panic!("a valid block failed to decode"),
        (Some(_), Expect::Fail) => panic!("a truncated block decoded"),
        (Some(lab), _) => {
            assert!(lab.packed_is_sealed(), "loaded labellings are sealed");
            assert_eq!(*lab.packed(), PackedIndex::build(&lab));
            if expect == Expect::RoundTrip {
                assert!(peak > 0, "the counting allocator sees the decode");
                let again = if bytes.starts_with(b"BHL1") {
                    write_v1(&lab)
                } else {
                    let mut out = Vec::new();
                    write_labelling(&lab, &mut out).unwrap();
                    out
                };
                assert_eq!(again, bytes, "a valid block re-encodes to its bytes");
            }
        }
        (None, _) => {}
    }
}

/// Bytes of one dense label page.
const PAGE_BYTES: usize = PAGE_LEN * 4;

/// Landmarks `0..r` over `n` vertices; every other vertex `v` holds one
/// label, on landmark `(v + shift) mod r`, so consecutive vertices land
/// on different rows and each page of a row holds few entries.
fn spread(n: usize, r: usize, shift: usize) -> Labelling {
    let mut lab = Labelling::empty(n, (0..r as Vertex).collect()).unwrap();
    for v in r..n {
        lab.set_label((v + shift) % r, v as Vertex, 1 + (v % 3) as u32);
    }
    lab
}

/// Distinct (landmark, page) pairs holding a label.
fn page_pairs(lab: &Labelling) -> usize {
    (0..lab.num_landmarks())
        .map(|i| {
            let row: Vec<_> = lab.label_row(i).iter().collect();
            row.chunks(PAGE_LEN)
                .filter(|page| page.iter().any(|&d| d != NO_LABEL))
                .count()
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn spread_out_entries_cost_a_page_per_landmark_page(
        r in 64usize..192,
        pages in 2usize..12,
        shift in 0usize..1_000,
    ) {
        let lab = spread(pages * PAGE_LEN, r, shift);
        let mut bytes = Vec::new();
        write_labelling(&lab, &mut bytes).unwrap();
        let (out, peak) = decode(&bytes);
        let decoded = out.expect("the decoder must not panic").expect("a valid block decodes");
        prop_assert_eq!(&decoded, &lab);
        let pairs = page_pairs(&lab);
        prop_assert!(
            peak <= PAGE_BYTES * pairs + 64 * bytes.len() + SLACK,
            "{} bytes allocated for {} pages and a {}-byte input", peak, pairs, bytes.len()
        );
        let entries = lab.size_entries();
        prop_assert!(3 * entries <= bytes.len(), "{} entries in {} bytes", entries, bytes.len());
        prop_assert!(pairs <= entries);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn damaged_blocks_fail_typed_and_allocate_what_they_hold(
        seed in 0u64..1_000_000,
        n in 20usize..300,
        k in 1usize..8,
        dense in prop::bool::ANY,
        kind in 0u32..3,
        at in 0u64..u64::MAX,
        flip in 1u32..256,
    ) {
        let valid = block(seed, n, k, dense);
        check(&valid, Expect::RoundTrip);
        let pos = (at % valid.len() as u64) as usize;
        let mut bytes = valid.clone();
        if kind != 0 {
            bytes[pos] ^= flip as u8;
        }
        if kind != 1 {
            let cut = (at / 7 % valid.len() as u64) as usize;
            bytes.truncate(cut);
        }
        check(&bytes, if kind == 1 { Expect::Either } else { Expect::Fail });
    }

    #[test]
    fn headers_claiming_huge_shapes_fail_within_the_slack(
        n in 0u64..u64::MAX,
        r in 0u64..70_000,
        dense in prop::bool::ANY,
        tail in 0usize..64,
    ) {
        let mut bytes = if dense { b"BHL1".to_vec() } else { b"BHL3".to_vec() };
        bytes.extend_from_slice(&(n >> (n % 64)).to_le_bytes());
        bytes.extend_from_slice(&r.to_le_bytes());
        bytes.extend(std::iter::repeat_n(0u8, tail));
        check(&bytes, Expect::Either);
    }
}
