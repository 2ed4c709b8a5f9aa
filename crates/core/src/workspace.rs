//! Reusable per-landmark workspace for batch search and batch repair.
//!
//! One `UpdateWorkspace` serves every landmark of every batch: all
//! members reset sparsely (epoch bump or touched-list walk), so the
//! steady-state update path performs no allocation. Parallel updates
//! (BHLₚ) give each thread its own workspace.

use batchhl_common::{DialQueue, EpochCache, LandmarkLength, LexDialQueue, SparseBitSet, Vertex};
use batchhl_hcl::{LabelView, Labelling};

/// Scratch state shared by Algorithms 2, 3 and 4.
#[derive(Debug, Default)]
pub struct UpdateWorkspace {
    /// `V_aff` — affected-vertex set of the current landmark.
    pub aff: SparseBitSet,
    /// Queue for the basic search (Algorithm 2).
    pub queue: DialQueue,
    /// Queue for the improved search (Algorithm 3).
    pub lex_queue: LexDialQueue,
    /// Queue for repair (Algorithm 4), keyed by distance bound.
    pub repair_queue: DialQueue,
    /// Memo of `d^L_G(r, ·)` lookups for the current landmark — the
    /// "store distances for all unaffected neighbours" optimization the
    /// paper uses to drop the `l` factor from Algorithm 4's complexity.
    pub dl_cache: EpochCache,
    /// `D_bou` of Algorithm 4 (landmark distance bounds), epoch-stamped.
    pub bounds: EpochCache,
}

impl UpdateWorkspace {
    pub fn new(n: usize) -> Self {
        UpdateWorkspace {
            aff: SparseBitSet::new(n),
            queue: DialQueue::new(),
            lex_queue: LexDialQueue::new(),
            repair_queue: DialQueue::new(),
            dl_cache: EpochCache::new(n),
            bounds: EpochCache::new(n),
        }
    }

    /// Make room for `n` vertices (cheap when already large enough).
    pub fn grow(&mut self, n: usize) {
        self.aff.grow(n);
        self.dl_cache.grow(n);
        self.bounds.grow(n);
    }

    /// Reset everything for the next landmark.
    pub fn reset(&mut self) {
        self.aff.clear();
        self.queue.clear();
        self.lex_queue.clear();
        self.repair_queue.clear();
        self.dl_cache.clear();
        self.bounds.clear();
    }
}

/// Memoized `d^L_G(r_i, v)` lookup against the *old* labelling.
///
/// The search phase touches every neighbour of every affected vertex
/// with this oracle; batch repair then re-reads exactly those vertices,
/// hitting the cache.
#[inline]
pub fn dl_old(lab: &Labelling, i: usize, v: Vertex, cache: &mut EpochCache) -> LandmarkLength {
    if let Some(key) = cache.get(v as usize) {
        return LandmarkLength::from_key(key);
    }
    let ll = lab.landmark_dist(i, v);
    cache.set(v as usize, ll.key());
    ll
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchhl_graph::generators::path;
    use batchhl_hcl::build_labelling;

    #[test]
    fn dl_old_caches_correctly() {
        let g = path(6);
        let lab = build_labelling(&g, vec![0, 3]).unwrap();
        let mut cache = EpochCache::new(6);
        for v in 0..6u32 {
            let fresh = lab.landmark_dist(0, v);
            let first = dl_old(&lab, 0, v, &mut cache);
            let second = dl_old(&lab, 0, v, &mut cache);
            assert_eq!(first, fresh);
            assert_eq!(second, fresh);
        }
        // Cache must not leak across landmarks: caller clears.
        cache.clear();
        let v1_for_lm1 = dl_old(&lab, 1, 1, &mut cache);
        assert_eq!(v1_for_lm1, lab.landmark_dist(1, 1));
    }

    #[test]
    fn workspace_reset_and_grow() {
        let mut ws = UpdateWorkspace::new(4);
        ws.aff.insert(3);
        ws.queue.push(1, 3);
        ws.bounds.set(3, 42);
        ws.reset();
        assert!(!ws.aff.contains(3));
        assert!(ws.queue.is_empty());
        assert_eq!(ws.bounds.get(3), None);
        ws.grow(100);
        ws.aff.insert(99);
        assert!(ws.aff.contains(99));
    }
}
