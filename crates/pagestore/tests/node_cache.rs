//! Decoded-node cache integration tests: update visibility, the
//! hit/miss accounting invariant under multi-threaded load, and
//! staleness across `free`/realloc of a page id.
//!
//! The decoded type used throughout is plain `u8`/`Vec<u8>` — the cache
//! is type-agnostic (`Arc<dyn Any>`), so byte-level payloads exercise
//! the same paths the tree nodes do.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use boxagg_pagestore::fault::is_injected;
use boxagg_pagestore::{FaultPager, FaultSpec, MemPager, OpFilter, SharedStore, StoreConfig};

fn store(buffer_pages: usize, cache_pages: usize) -> SharedStore {
    SharedStore::open(&StoreConfig::small(128, buffer_pages).with_node_cache(cache_pages)).unwrap()
}

#[test]
fn write_invalidates_cached_decode() {
    let s = store(8, 8);
    let id = s.allocate().unwrap();
    s.write_page(id, &[1]).unwrap();
    let first = s.read_node::<u8, _>(id, |b| Ok(b[0])).unwrap();
    assert_eq!(*first, 1);
    // Cached now: a second read must not decode again.
    let before = s.stats();
    assert_eq!(*s.read_node::<u8, _>(id, |b| Ok(b[0])).unwrap(), 1);
    let after = s.stats();
    assert_eq!(after.decode_hits, before.decode_hits + 1);
    // Overwrite: the cached decode must be invisible afterwards.
    s.write_page(id, &[2]).unwrap();
    assert_eq!(*s.read_node::<u8, _>(id, |b| Ok(b[0])).unwrap(), 2);
    assert!(
        s.stats().decode_invalidations >= 2,
        "every write drops the page's live decode"
    );
}

#[test]
fn decode_accounting_invariant_holds() {
    let s = store(8, 16);
    let mut ids = Vec::new();
    for i in 0..10u8 {
        let id = s.allocate().unwrap();
        s.write_page(id, &[i]).unwrap();
        ids.push(id);
    }
    s.reset_stats();
    let mut accesses = 0u64;
    for round in 0..5 {
        for (i, &id) in ids.iter().enumerate() {
            let got = *s.read_node::<u8, _>(id, |b| Ok(b[0])).unwrap();
            assert_eq!(got, i as u8, "round {round}");
            accesses += 1;
        }
    }
    let st = s.stats();
    assert_eq!(
        st.decode_hits + st.decode_misses,
        accesses,
        "every node access is exactly one counted hit or miss"
    );
    // First round decodes cold, later rounds hit: both kinds occur.
    assert!(st.decode_hits > 0 && st.decode_misses > 0);
}

#[test]
fn disabled_cache_counts_all_accesses_as_misses() {
    let s = store(8, 0);
    let id = s.allocate().unwrap();
    s.write_page(id, &[7]).unwrap();
    s.reset_stats();
    for _ in 0..5 {
        assert_eq!(*s.read_node::<u8, _>(id, |b| Ok(b[0])).unwrap(), 7);
    }
    let st = s.stats();
    assert_eq!((st.decode_hits, st.decode_misses), (0, 5));
}

#[test]
fn cache_does_not_change_byte_level_accounting() {
    // Identical access sequences against a cached and an uncached store:
    // byte reads/writes/hits must be equal in every position.
    let run = |cache_pages: usize| {
        let s = store(4, cache_pages); // tiny buffer: forces evictions
        let mut ids = Vec::new();
        for i in 0..12u8 {
            let id = s.allocate().unwrap();
            s.write_page(id, &[i]).unwrap();
            ids.push(id);
        }
        let mut trace = Vec::new();
        for round in 0..4usize {
            for &id in ids.iter().skip(round % 3) {
                let _ = s.read_node::<u8, _>(id, |b| Ok(b[0])).unwrap();
                let st = s.stats();
                trace.push((st.reads, st.writes, st.hits));
            }
        }
        trace
    };
    assert_eq!(
        run(64),
        run(0),
        "byte-level I/O must be identical with the decoded cache on or off"
    );
}

#[test]
fn no_stale_reads_after_free_and_realloc() {
    let s = store(8, 8);
    let id = s.allocate().unwrap();
    s.write_page(id, &[1]).unwrap();
    assert_eq!(*s.read_node::<u8, _>(id, |b| Ok(b[0])).unwrap(), 1);
    s.free(id).unwrap();
    // The freed id is reused (LIFO free list) with fresh contents.
    let id2 = s.allocate().unwrap();
    assert_eq!(id2, id, "free list must hand the id back for this test");
    s.write_page(id2, &[9]).unwrap();
    assert_eq!(
        *s.read_node::<u8, _>(id2, |b| Ok(b[0])).unwrap(),
        9,
        "decode cached before the free must not survive realloc"
    );
}

/// A `write_page` that fails at the pager (here: the eviction write-back
/// it forces) must leave the decoded cache consistent with the bytes —
/// the old decode may keep being served (the bytes are unchanged), but a
/// successful retry must invalidate it.
#[test]
fn failing_write_never_leaves_stale_decode_servable() {
    let (pager, faults) = FaultPager::new(Box::new(MemPager::new(128)));
    let s = SharedStore::with_pager(
        Box::new(pager),
        &StoreConfig::small(128, 2).with_node_cache(8),
    );
    let a = s.allocate().unwrap();
    let b = s.allocate().unwrap();
    let c = s.allocate().unwrap();
    s.write_page(a, &[1]).unwrap();
    assert_eq!(*s.read_node::<u8, _>(a, |d| Ok(d[0])).unwrap(), 1);
    // Push `a` out of the 2-frame pool and leave both frames dirty, so
    // rewriting `a` must evict — and therefore write to the pager.
    s.write_page(b, &[5]).unwrap();
    s.write_page(c, &[6]).unwrap();
    faults.arm(FaultSpec::sticky_from(OpFilter::Writes, 1));
    let err = s.write_page(a, &[2]).unwrap_err();
    assert!(is_injected(&err), "got: {err}");
    s.validate().unwrap();
    faults.disarm();
    // The failed write changed nothing: decode and bytes must agree.
    assert_eq!(s.with_page(a, |d| d[0]).unwrap(), 1);
    assert_eq!(
        *s.read_node::<u8, _>(a, |d| Ok(d[0])).unwrap(),
        1,
        "decode disagrees with the bytes after a failed write"
    );
    // A successful retry invalidates the cached decode of the old bytes.
    s.write_page(a, &[2]).unwrap();
    assert_eq!(*s.read_node::<u8, _>(a, |d| Ok(d[0])).unwrap(), 2);
    assert_eq!(s.with_page(a, |d| d[0]).unwrap(), 2);
    s.validate().unwrap();
}

/// `free` performs no pager I/O, so it must invalidate the decoded entry
/// even while every pager write is failing — the reallocated id's fresh
/// contents must never lose to a decode cached before the free.
#[test]
fn free_under_write_faults_still_invalidates_the_decode() {
    let (pager, faults) = FaultPager::new(Box::new(MemPager::new(128)));
    let s = SharedStore::with_pager(
        Box::new(pager),
        &StoreConfig::small(128, 4).with_node_cache(8),
    );
    let id = s.allocate().unwrap();
    s.write_page(id, &[3]).unwrap();
    assert_eq!(*s.read_node::<u8, _>(id, |d| Ok(d[0])).unwrap(), 3);
    faults.arm(FaultSpec::sticky_from(OpFilter::Writes, 1));
    s.free(id).unwrap();
    let id2 = s.allocate().unwrap();
    assert_eq!(id2, id, "free list must hand the id back for this test");
    // Whole-page writes never read and the frame fits the pool, so this
    // succeeds without touching the (failing) pager.
    s.write_page(id2, &[8]).unwrap();
    assert_eq!(
        *s.read_node::<u8, _>(id2, |d| Ok(d[0])).unwrap(),
        8,
        "decode cached before the free must not survive realloc"
    );
    faults.disarm();
    s.validate().unwrap();
}

/// Multi-threaded stress: writers keep rewriting their own pages while
/// every thread reads all pages. Readers must never observe a decode
/// older than the last value the owner acknowledged, and the global
/// accounting invariant must hold exactly.
#[test]
fn concurrent_stress_no_stale_decodes() {
    const THREADS: usize = 4;
    const PAGES_PER_THREAD: usize = 4;
    const ROUNDS: u64 = 200;

    let s = store(32, 16);
    let all_ids: Vec<_> = (0..THREADS * PAGES_PER_THREAD)
        .map(|_| {
            let id = s.allocate().unwrap();
            s.write_page(id, &[0; 8]).unwrap();
            id
        })
        .collect();
    s.reset_stats();
    let accesses = Arc::new(AtomicU64::new(0));
    // Per-page monotonic floor: the owner publishes the value it wrote;
    // any reader must decode a value >= the floor it last observed.
    let floors: Vec<AtomicU64> = all_ids.iter().map(|_| AtomicU64::new(0)).collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let s = s.clone();
            let all_ids = &all_ids;
            let floors = &floors;
            let accesses = Arc::clone(&accesses);
            scope.spawn(move || {
                let own = t * PAGES_PER_THREAD..(t + 1) * PAGES_PER_THREAD;
                for round in 1..=ROUNDS {
                    // Rewrite one owned page, then publish the floor.
                    let slot = own.start + (round as usize % PAGES_PER_THREAD);
                    let mut payload = [0u8; 8];
                    payload.copy_from_slice(&round.to_le_bytes());
                    s.write_page(all_ids[slot], &payload).unwrap();
                    floors[slot].store(round, Ordering::SeqCst);
                    // Read every page; decoded values may lag the write
                    // we race with but never the published floor.
                    for (i, &id) in all_ids.iter().enumerate() {
                        let floor = floors[i].load(Ordering::SeqCst);
                        let got = *s
                            .read_node::<u64, _>(id, |b| {
                                let mut raw = [0u8; 8];
                                raw.copy_from_slice(&b[..8]);
                                Ok(u64::from_le_bytes(raw))
                            })
                            .unwrap();
                        accesses.fetch_add(1, Ordering::Relaxed);
                        assert!(
                            got >= floor,
                            "stale decode on page {i}: read {got}, floor was {floor}"
                        );
                    }
                }
            });
        }
    });

    let st = s.stats();
    assert_eq!(
        st.decode_hits + st.decode_misses,
        accesses.load(Ordering::Relaxed),
        "hit/miss accounting must balance under concurrency"
    );
    assert_eq!(
        st.decode_invalidations,
        THREADS as u64 * ROUNDS,
        "one invalidation per write_page"
    );
    assert!(st.decode_hits > 0, "warm pages must hit");
}
