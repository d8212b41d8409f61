//! Decoded-node cache: a typed object cache layered *above* the byte
//! buffer pool.
//!
//! A dominance-sum traversal decodes every node it touches, so a byte
//! buffer *hit* still re-parses points, values and polynomial tuples on
//! every visit.  This cache keeps the decoded representation — an
//! `Arc<dyn Any + Send + Sync>` — keyed by page id and page-image
//! *version*, so warm traversals skip the codec entirely.  It
//! deliberately changes *nothing* about byte-level I/O accounting: the
//! store still performs exactly one byte-pool access per node read (see
//! [`SharedStore::read_node`](crate::store::SharedStore::read_node)), so
//! the paper-faithful `IoStats` reads/hits/eviction order are
//! byte-identical with the cache on or off.
//!
//! # Version protocol
//!
//! The buffer pool stamps every page image with a [`Version`]: the
//! pool-wide mutation stamp of the write that produced it, carried
//! along as the image moves into a frame's committed base, a retained
//! snapshot version or the data file, and reported to the reader
//! together with the bytes it serves. Equal versions of one page mean
//! identical bytes, so an entry is
//! valid for exactly the readers that see its version — no matter how
//! many writes happened since.
//!
//! The store probes the cache *inside* its one page access, with the
//! version the pool reports for the bytes it is about to hand over:
//! [`lookup`](NodeCache::lookup) on the version, and on a miss decode
//! and [`insert`](NodeCache::insert) under that same version.  The
//! version and the bytes come from the same locked read, so no decode
//! can ever be filed under the wrong image and there is nothing to
//! race.  [`invalidate`](NodeCache::invalidate) — called by the store
//! after a write or free — only drops the page's uncommitted entry,
//! which no reader can ask for any more.
//!
//! Each shard's mutex is a [`RankedMutex`] at rank
//! [`NODE_CACHE`](crate::rank::NODE_CACHE), taken while the page's
//! buffer shard (and, for a retained snapshot image, the snapshot
//! table) is held; nothing is acquired under it.
//!
//! # Relation to commit epochs
//!
//! Snapshot reads ([`StoreSnapshot`](crate::store::StoreSnapshot)) and
//! live reads share this one cache.  A snapshot at epoch `e` reads the
//! image visible at `e` and hits on that image's version; a live read
//! hits on the current image's.  Each page keeps at most two entries:
//!
//! * **live** — the decode of an uncommitted image (every image on a
//!   pool without WAL).  Dropped by the next write or free of the page.
//! * **committed** — the decode of the newest committed image seen so
//!   far.  Writes leave it alone, so readers at the current epoch keep
//!   hitting while the writer holds uncommitted versions of the page;
//!   it is only ever replaced by a *newer* committed image, so a
//!   snapshot pinned at an older epoch never displaces it (that
//!   snapshot decodes its superseded images uncached).
//!
//! A lookup matches either entry by version, so a live read of a clean
//! page hits the committed entry a snapshot reader left, and vice versa;
//! a live entry whose image has since been committed moves to the
//! committed slot the first time a reader of committed bytes hits it.
//! On a pool without WAL only live entries exist, and the cache behaves
//! exactly like a single-entry-per-page LRU invalidated on every write.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::buffer::Version;
use crate::pager::PageId;
use crate::rank::{self, RankedMutex};

/// Type-erased decoded node as stored in the cache.
pub type CachedNode = Arc<dyn Any + Send + Sync>;

const NIL: usize = usize::MAX;
/// Index of a page's live entry in its [`Pair`].
const LIVE: usize = 0;
/// Index of a page's committed entry in its [`Pair`].
const COMMITTED: usize = 1;

/// A page's entry slots: `[live, committed]` entry indexes, `NIL` when
/// empty.
type Pair = [usize; 2];

#[derive(Debug)]
struct Entry {
    id: PageId,
    /// [`LIVE`] or [`COMMITTED`].
    slot: usize,
    version: u64,
    node: Option<CachedNode>,
    prev: usize,
    next: usize,
}

/// One independent LRU list over a slice of the page-id space, mirroring
/// the byte pool's shard structure.
struct CacheShard {
    capacity: usize,
    entries: Vec<Entry>,
    map: HashMap<PageId, Pair>,
    /// Entries in use (at most two per mapped page).
    len: usize,
    /// Most recently used entry index.
    head: usize,
    /// Least recently used entry index.
    tail: usize,
    free: Vec<usize>,
}

impl CacheShard {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: Vec::new(),
            map: HashMap::new(),
            len: 0,
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.entries[idx].prev, self.entries[idx].next);
        if prev != NIL {
            self.entries[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.entries[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.entries[idx].prev = NIL;
        self.entries[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.entries[idx].prev = NIL;
        self.entries[idx].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.detach(idx);
            self.push_front(idx);
        }
    }

    /// Removes entry `idx` (LRU eviction, invalidation, or a type
    /// mismatch), unmapping its page once both of its slots are empty.
    fn remove(&mut self, idx: usize) {
        let Entry { id, slot, .. } = self.entries[idx];
        if let Some(pair) = self.map.get_mut(&id) {
            pair[slot] = NIL;
            if *pair == [NIL, NIL] {
                self.map.remove(&id);
            }
        }
        self.detach(idx);
        self.entries[idx].node = None;
        self.entries[idx].id = PageId::NULL;
        self.free.push(idx);
        self.len -= 1;
    }

    /// Moves live entry `idx` into its page's committed slot: the image
    /// it decodes has since been committed (a reader of committed bytes
    /// just hit it), so the page's next write must not drop it. A newer
    /// committed entry stays put instead.
    fn promote(&mut self, idx: usize) {
        let Entry { id, version, .. } = self.entries[idx];
        let committed = self.map.get(&id).map_or(NIL, |pair| pair[COMMITTED]);
        if committed != NIL {
            if self.entries[committed].version > version {
                return;
            }
            self.remove(committed);
        }
        if let Some(pair) = self.map.get_mut(&id) {
            *pair = [NIL, idx];
        }
        self.entries[idx].slot = COMMITTED;
    }

    fn insert(&mut self, id: PageId, slot: usize, version: u64, node: CachedNode) {
        if self.capacity == 0 {
            return;
        }
        let existing = self.map.get(&id).map_or(NIL, |pair| pair[slot]);
        if existing != NIL {
            if slot == COMMITTED && self.entries[existing].version > version {
                // An older epoch's image never displaces a newer one.
                return;
            }
            self.entries[existing].version = version;
            self.entries[existing].node = Some(node);
            self.touch(existing);
            return;
        }
        if self.len >= self.capacity {
            self.remove(self.tail);
        }
        let entry = Entry {
            id,
            slot,
            version,
            node: Some(node),
            prev: NIL,
            next: NIL,
        };
        let idx = if let Some(idx) = self.free.pop() {
            self.entries[idx] = entry;
            idx
        } else {
            self.entries.push(entry);
            self.entries.len() - 1
        };
        self.map.entry(id).or_insert([NIL, NIL])[slot] = idx;
        self.len += 1;
        self.push_front(idx);
    }
}

/// A sharded, version-keyed LRU cache of decoded nodes.
///
/// Created and owned by [`SharedStore`](crate::store::SharedStore);
/// capacity 0 disables storage entirely (every lookup is a counted miss,
/// preserving the `decode_hits + decode_misses == node accesses`
/// invariant even when disabled).
pub struct NodeCache {
    shards: Box<[RankedMutex<CacheShard>]>,
    /// `shards.len() - 1`; shard count is a power of two.
    shard_mask: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl std::fmt::Debug for NodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeCache")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl NodeCache {
    /// Creates a cache holding at most `capacity` decoded nodes split
    /// across `shards` LRU lists (rounded up to a power of two).
    /// `capacity == 0` disables storage but keeps counting accesses.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shards: Vec<RankedMutex<CacheShard>> = (0..n)
            .map(|i| {
                // Split capacity as evenly as possible; a disabled cache
                // (capacity 0) gets zero-capacity shards.
                let cap = if capacity == 0 {
                    0
                } else {
                    (capacity / n + usize::from(i < capacity % n)).max(1)
                };
                RankedMutex::new(rank::NODE_CACHE, "node cache shard", CacheShard::new(cap))
            })
            .collect();
        Self {
            shards: shards.into_boxed_slice(),
            shard_mask: (n - 1) as u64,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, id: PageId) -> &RankedMutex<CacheShard> {
        // Fibonacci hashing, matching the byte pool's spread.
        let h = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(h & self.shard_mask) as usize]
    }

    /// Total node capacity (summed across shards).
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.acquire().capacity).sum()
    }

    /// Looks up the decode of page `id`'s image `version` (in either of
    /// the page's entries) and returns it, counting a hit. A live entry
    /// hit by a reader of committed bytes is promoted to the page's
    /// committed entry. A missing entry — or one whose concrete type is
    /// not `N`, which is dropped — counts as a miss; the caller decodes
    /// and calls [`insert`](Self::insert) with the same version.
    pub fn lookup<N: Any + Send + Sync>(&self, id: PageId, version: Version) -> Option<Arc<N>> {
        let mut shard = self.shard_for(id).acquire();
        let pair = shard.map.get(&id).copied().unwrap_or([NIL, NIL]);
        if let Some(idx) = pair
            .into_iter()
            .find(|&i| i != NIL && shard.entries[i].version == version.seq)
        {
            let node = shard.entries[idx]
                .node
                .clone()
                .and_then(|n| n.downcast::<N>().ok());
            if let Some(node) = node {
                if version.committed && shard.entries[idx].slot == LIVE {
                    shard.promote(idx);
                }
                shard.touch(idx);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(node);
            }
            // Same image decoded as a different type: drop the entry
            // and let the caller re-decode.
            shard.remove(idx);
        }
        drop(shard);
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Caches `node`, the decode of page `id`'s image `version`: in the
    /// page's committed entry if the image is committed (unless that
    /// entry already holds a newer image), in its live entry otherwise.
    pub fn insert(&self, id: PageId, version: Version, node: CachedNode) {
        let slot = if version.committed { COMMITTED } else { LIVE };
        self.shard_for(id)
            .acquire()
            .insert(id, slot, version.seq, node);
    }

    /// Drops `id`'s live entry. Called by the store after a write or
    /// free of the page, whose uncommitted image no reader can ask for
    /// any more; the committed entry stays for snapshot readers.
    pub fn invalidate(&self, id: PageId) {
        let mut shard = self.shard_for(id).acquire();
        if let Some(idx) = shard.map.get(&id).map(|pair| pair[LIVE]) {
            if idx != NIL {
                shard.remove(idx);
            }
        }
        drop(shard);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// `(hits, misses, invalidations)` counter snapshot.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.invalidations.load(Ordering::Relaxed),
        )
    }

    /// Zeroes the hit/miss/invalidation counters.
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.invalidations.store(0, Ordering::Relaxed);
    }

    /// Checks the cache's structural invariants — used by the
    /// fault-sweep harness after injected failures. Per shard: the LRU
    /// list is well-formed over exactly the entries in use, every entry
    /// is in use or free (none leaked), free entries are truly emptied,
    /// every entry in use holds a node and is the one its page maps in
    /// its slot, and occupancy respects capacity.
    pub fn validate(&self) -> boxagg_common::error::Result<()> {
        use boxagg_common::error::corrupt;
        for (si, shard) in self.shards.iter().enumerate() {
            let shard = shard.acquire();
            let fail = |msg: &str| Err(corrupt(format!("node cache shard {si}: {msg}")));
            let mut linked = 0usize;
            let mut prev = NIL;
            let mut idx = shard.head;
            while idx != NIL {
                let e = &shard.entries[idx];
                if e.prev != prev {
                    return fail("LRU back-link mismatch");
                }
                if e.id.is_null() || e.node.is_none() {
                    return fail("linked entry holds no node");
                }
                if shard.map.get(&e.id).map(|pair| pair[e.slot]) != Some(idx) {
                    return fail("linked entry not mapped to itself");
                }
                linked += 1;
                if linked > shard.entries.len() {
                    return fail("LRU list cycles");
                }
                prev = idx;
                idx = e.next;
            }
            if shard.tail != prev {
                return fail("tail does not end the LRU list");
            }
            let mapped: usize = shard
                .map
                .values()
                .map(|pair| pair.iter().filter(|&&i| i != NIL).count())
                .sum();
            if linked != shard.len || mapped != shard.len {
                return fail("entries in use missing from the LRU list or the page map");
            }
            if shard.len > shard.capacity {
                return fail("occupancy exceeds capacity (or a disabled shard stored an entry)");
            }
            let mut free_set = std::collections::HashSet::new();
            for &i in &shard.free {
                if !free_set.insert(i) {
                    return fail("entry on the free list twice");
                }
                if !shard.entries[i].id.is_null() || shard.entries[i].node.is_some() {
                    return fail("free entry not emptied");
                }
            }
            if linked + shard.free.len() != shard.entries.len() {
                return fail("entry leaked (neither in use nor free)");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> PageId {
        PageId(n)
    }

    fn live(seq: u64) -> Version {
        Version {
            seq,
            committed: false,
        }
    }

    fn committed(seq: u64) -> Version {
        Version {
            seq,
            committed: true,
        }
    }

    #[test]
    fn miss_then_hit_round_trip() {
        let cache = NodeCache::new(8, 1);
        assert!(cache.lookup::<String>(pid(1), live(3)).is_none());
        cache.insert(pid(1), live(3), Arc::new("node".to_string()));
        assert_eq!(
            cache.lookup::<String>(pid(1), live(3)).unwrap().as_str(),
            "node"
        );
        assert_eq!(cache.counters(), (1, 1, 0));
        cache.validate().unwrap();
    }

    #[test]
    fn a_lookup_only_hits_its_own_version() {
        let cache = NodeCache::new(8, 1);
        cache.insert(pid(7), live(1), Arc::new(1u32));
        // A write produced version 2: the version-1 decode is not it.
        assert!(cache.lookup::<u32>(pid(7), live(2)).is_none());
        cache.insert(pid(7), live(2), Arc::new(2u32));
        assert_eq!(*cache.lookup::<u32>(pid(7), live(2)).unwrap(), 2);
        assert!(cache.lookup::<u32>(pid(7), live(1)).is_none(), "replaced");
        // Invalidation removes the live entry.
        cache.invalidate(pid(7));
        assert!(cache.lookup::<u32>(pid(7), live(2)).is_none());
        cache.validate().unwrap();
    }

    #[test]
    fn writes_keep_the_committed_entry_and_it_only_moves_forward() {
        let cache = NodeCache::new(8, 1);
        cache.insert(pid(4), committed(5), Arc::new(5u64));
        cache.insert(pid(4), live(6), Arc::new(6u64));
        // Both images are served side by side, each to its own readers.
        assert_eq!(*cache.lookup::<u64>(pid(4), committed(5)).unwrap(), 5);
        assert_eq!(*cache.lookup::<u64>(pid(4), live(6)).unwrap(), 6);
        // A write drops only the uncommitted decode.
        cache.invalidate(pid(4));
        assert!(cache.lookup::<u64>(pid(4), live(6)).is_none());
        assert_eq!(*cache.lookup::<u64>(pid(4), committed(5)).unwrap(), 5);
        // An older epoch's image does not displace the newer one ...
        cache.insert(pid(4), committed(2), Arc::new(2u64));
        assert!(cache.lookup::<u64>(pid(4), committed(2)).is_none());
        assert_eq!(*cache.lookup::<u64>(pid(4), committed(5)).unwrap(), 5);
        // ... a newer commit's image replaces it.
        cache.insert(pid(4), committed(9), Arc::new(9u64));
        assert!(cache.lookup::<u64>(pid(4), committed(5)).is_none());
        assert_eq!(*cache.lookup::<u64>(pid(4), committed(9)).unwrap(), 9);
        cache.validate().unwrap();
    }

    #[test]
    fn a_committed_read_promotes_a_live_entry_past_the_next_write() {
        let cache = NodeCache::new(8, 1);
        cache.insert(pid(2), committed(1), Arc::new(1u64));
        // The writer decoded its own write, which a commit then covered.
        cache.insert(pid(2), live(4), Arc::new(4u64));
        assert_eq!(*cache.lookup::<u64>(pid(2), committed(4)).unwrap(), 4);
        // The next write no longer drops it; the older committed decode
        // made way.
        cache.invalidate(pid(2));
        assert_eq!(*cache.lookup::<u64>(pid(2), committed(4)).unwrap(), 4);
        assert!(cache.lookup::<u64>(pid(2), committed(1)).is_none());
        cache.validate().unwrap();
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = NodeCache::new(2, 1);
        for n in [1u64, 2] {
            cache.insert(pid(n), live(n), Arc::new(n));
        }
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup::<u64>(pid(1), live(1)).is_some());
        cache.insert(pid(3), live(3), Arc::new(3u64));
        assert!(
            cache.lookup::<u64>(pid(2), live(2)).is_none(),
            "2 was evicted"
        );
        assert!(cache.lookup::<u64>(pid(1), live(1)).is_some());
        assert!(cache.lookup::<u64>(pid(3), live(3)).is_some());
        // Capacity counts entries, not pages: a page's second entry
        // evicts like any other.
        cache.insert(pid(3), committed(2), Arc::new(2u64));
        assert!(
            cache.lookup::<u64>(pid(1), live(1)).is_none(),
            "1 was evicted"
        );
        cache.validate().unwrap();
    }

    #[test]
    fn zero_capacity_counts_misses_but_stores_nothing() {
        let cache = NodeCache::new(0, 4);
        for n in 0..10u64 {
            assert!(cache.lookup::<u64>(pid(n), live(0)).is_none());
            cache.insert(pid(n), live(0), Arc::new(n));
        }
        for n in 0..10u64 {
            assert!(cache.lookup::<u64>(pid(n), live(0)).is_none());
        }
        let (hits, misses, _) = cache.counters();
        assert_eq!((hits, misses), (0, 20));
        assert_eq!(cache.capacity(), 0);
        cache.validate().unwrap();
    }

    #[test]
    fn wrong_type_is_a_counted_miss_and_reinsertable() {
        let cache = NodeCache::new(4, 1);
        cache.insert(pid(9), committed(1), Arc::new(5u32));
        // Same image asked for as a different type: miss, entry dropped.
        assert!(cache.lookup::<String>(pid(9), live(1)).is_none());
        cache.insert(pid(9), committed(1), Arc::new("s".to_string()));
        assert_eq!(
            cache.lookup::<String>(pid(9), live(1)).unwrap().as_str(),
            "s"
        );
        // Two lookups: one counted hit, one counted miss.
        let (hits, misses, _) = cache.counters();
        assert_eq!((hits, misses), (1, 1));
        cache.validate().unwrap();
    }

    #[test]
    fn counters_reset() {
        let cache = NodeCache::new(4, 2);
        cache.insert(pid(3), live(1), Arc::new(1u8));
        cache.lookup::<u8>(pid(3), live(1));
        cache.invalidate(pid(3));
        assert_ne!(cache.counters(), (0, 0, 0));
        cache.reset_counters();
        assert_eq!(cache.counters(), (0, 0, 0));
    }
}
