//! Snapshot-pinned box-sum evaluation for the serving layer.
//!
//! A network server executing many concurrent queries cannot use
//! [`CornerBoxSum`](crate::reduction::CornerBoxSum) directly: the engine
//! is `&mut self` (it owns its trees and statistics) and reads *live*
//! pages, so answers would depend on how queries interleave with
//! writers. [`SnapshotBoxSum`] is the read side factored out: it pins
//! one commit epoch via [`StoreSnapshot`] and answers any number of
//! box-sum / dominance-sum requests against that frozen state through
//! `&self` — naturally shareable across a batch.
//!
//! Bit-identity is a hard requirement (the serving layer's batching must
//! be invisible in the answers), so corner points come from the shared
//! [`corner_query_point`] and the `2^d` terms combine in mask-ascending
//! order with the same `+=`/`-=` scheme as
//! [`CornerBoxSum::query`](crate::reduction::CornerBoxSum::query).
//!
//! The catalog naming scheme persisted engines use (one root per corner
//! mask plus an object-count meta entry) lives here too, so the CLI and
//! the server agree on it by construction.

use boxagg_batree::BATree;
use boxagg_common::error::{invalid_arg, Result};
use boxagg_common::geom::{Point, Rect, MAX_DIM};
use boxagg_pagestore::{StoreSnapshot, Superblock};

use crate::reduction::corner_query_point;

/// Catalog name of the meta entry recording the engine's object count
/// and space (no pages of its own — see `RootKind::Meta`).
pub const OBJECTS_ROOT: &str = "meta/objects";

/// Catalog name of the corner tree for selector `mask`.
pub fn corner_root_name(mask: usize) -> String {
    format!("corner/{mask}")
}

/// A read-only box-sum engine over one pinned commit epoch.
///
/// Opens the `2^d` persisted corner BA-trees *as of* the snapshot's
/// epoch and answers queries through `&self`; see the module docs.
pub struct SnapshotBoxSum {
    snap: StoreSnapshot,
    dim: usize,
    len: u64,
    bounds: Rect,
    trees: Vec<BATree<f64>>,
}

impl SnapshotBoxSum {
    /// Opens the persisted engine the catalog describes, pinned to
    /// `snap`'s epoch. Fails with a typed error when the catalog has no
    /// [`OBJECTS_ROOT`] entry (no engine was ever persisted) or a
    /// corner tree is missing.
    ///
    /// The catalog is read and decoded once, from the pinned epoch's
    /// page 0, for the meta entry and every corner root.
    pub fn open(snap: StoreSnapshot) -> Result<Self> {
        let catalog = snap.superblock()?;
        let root = |name: &str| catalog.as_ref().and_then(|sb| sb.root(name)).cloned();
        let meta = root(OBJECTS_ROOT).ok_or_else(|| {
            invalid_arg(format!(
                "no {OBJECTS_ROOT:?} entry in the store catalog at epoch {}: \
                 the store holds no persisted box-sum engine",
                snap.epoch()
            ))
        })?;
        let dim = meta.dims as usize;
        if dim == 0 || dim > MAX_DIM {
            return Err(invalid_arg(format!(
                "{OBJECTS_ROOT:?} records dimension {dim}, out of range"
            )));
        }
        let bounds = Rect::from_bounds(&meta.bounds);
        let mut trees = Vec::with_capacity(1 << dim);
        for mask in 0..(1usize << dim) {
            let name = corner_root_name(mask);
            let entry = root(&name).ok_or_else(|| {
                invalid_arg(format!(
                    "no root named {name:?} in the store catalog at epoch {}",
                    snap.epoch()
                ))
            })?;
            trees.push(BATree::open_entry(snap.store().clone(), &name, entry)?);
        }
        Ok(Self {
            snap,
            dim,
            len: meta.len,
            bounds,
            trees,
        })
    }

    /// The pinned snapshot (e.g. for its decode counters).
    pub fn snapshot(&self) -> &StoreSnapshot {
        &self.snap
    }

    /// Dimensionality of the indexed space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Object count the catalog recorded at the pinned epoch.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the engine held no objects at the pinned epoch.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The indexed space recorded in the catalog.
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// Raw dominance-sum against the corner tree for `mask` — the
    /// serving protocol exposes this for diagnostics and for clients
    /// implementing their own reductions.
    pub fn dominance_sum(&self, mask: usize, y: &Point) -> Result<f64> {
        let tree = self.trees.get(mask).ok_or_else(|| {
            invalid_arg(format!(
                "corner mask {mask} out of range for dimension {}",
                self.dim
            ))
        })?;
        tree.dominance_sum_at(&self.snap, y)
    }

    /// Total value of objects intersecting `q` at the pinned epoch —
    /// bit-identical to what `CornerBoxSum::query` would return on the
    /// same committed state (same corner points, same mask-ascending
    /// combination).
    pub fn query(&self, q: &Rect) -> Result<f64> {
        if q.dim() != self.dim {
            return Err(invalid_arg("query dimensionality mismatch"));
        }
        let mut acc = 0.0;
        for (mask, tree) in self.trees.iter().enumerate() {
            let y = corner_query_point(q, self.dim, mask);
            let term = tree.dominance_sum_at(&self.snap, &y)?;
            if (mask.count_ones() & 1) == 0 {
                acc += term;
            } else {
                acc -= term;
            }
        }
        Ok(acc)
    }
}

impl std::fmt::Debug for SnapshotBoxSum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotBoxSum")
            .field("dim", &self.dim)
            .field("len", &self.len)
            .field("epoch", &self.snap.epoch())
            .finish_non_exhaustive()
    }
}

/// Publishes a [`CornerBoxSum`](crate::reduction::CornerBoxSum) over
/// BA-trees into the store catalog under the shared naming scheme: each
/// corner tree under [`corner_root_name`], plus the [`OBJECTS_ROOT`]
/// meta entry recording the object count and space. The caller commits.
pub fn persist_corner_engine(
    engine: &crate::reduction::CornerBoxSum<BATree<f64>>,
    space: &Rect,
) -> Result<()> {
    let trees = engine.indexes();
    let store = trees
        .first()
        .ok_or_else(|| invalid_arg("engine has no corner trees"))?
        .store()
        .clone();
    for (mask, tree) in trees.iter().enumerate() {
        tree.persist_as(&corner_root_name(mask))?;
    }
    let d = engine.dim();
    store.set_root(
        OBJECTS_ROOT,
        boxagg_pagestore::RootEntry {
            root: boxagg_pagestore::PageId::NULL,
            len: engine.len() as u64,
            dims: d as u32,
            max_value_size: 0,
            kind: boxagg_pagestore::RootKind::Meta,
            bounds: (0..d)
                .map(|i| (space.low().get(i), space.high().get(i)))
                .collect(),
        },
    )
}

/// Restores a [`CornerBoxSum`](crate::reduction::CornerBoxSum) that
/// [`persist_corner_engine`] published: reopens every corner tree by
/// name and the recorded object count. The inverse of persisting —
/// shared by the CLI and the server's write engine.
pub fn open_corner_engine(
    store: &boxagg_pagestore::SharedStore,
) -> Result<(crate::reduction::CornerBoxSum<BATree<f64>>, Rect)> {
    let meta = store.root(OBJECTS_ROOT)?.ok_or_else(|| {
        invalid_arg(format!(
            "no {OBJECTS_ROOT:?} entry in the store catalog: \
             the store holds no persisted box-sum engine"
        ))
    })?;
    let dim = meta.dims as usize;
    let space = Rect::from_bounds(&meta.bounds);
    let mut engine = crate::reduction::CornerBoxSum::new(dim, |mask| {
        BATree::open_named(store.clone(), &corner_root_name(mask))
    })?;
    engine.set_parallelism(store.parallelism());
    engine.restore_len(meta.len as usize);
    Ok((engine, space))
}

/// The superblock geometry a serving handshake advertises, read from a
/// snapshot so it is consistent with the epoch being served.
pub fn snapshot_superblock(snap: &StoreSnapshot) -> Result<Superblock> {
    snap.with_page(boxagg_pagestore::PageId(0), Superblock::decode)?
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimpleBoxSum;
    use boxagg_pagestore::{SharedStore, StoreConfig};

    fn rnd(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn rand_rect(s: &mut u64, dim: usize, side: f64) -> Rect {
        let low = Point::from_fn(dim, |_| rnd(s) * (1.0 - side));
        let high = Point::from_fn(dim, |i| low.get(i) + rnd(s) * side);
        Rect::new(low, high)
    }

    fn unit_space(dim: usize) -> Rect {
        Rect::from_bounds(&vec![(0.0, 1.0); dim])
    }

    fn wal_store() -> SharedStore {
        SharedStore::open(&StoreConfig::small(1024, 256).with_wal(true))
            .expect("open memory WAL store")
    }

    #[test]
    fn snapshot_engine_is_bit_identical_to_live_engine() {
        let store = wal_store();
        let space = unit_space(2);
        let mut live = SimpleBoxSum::batree_in(space, store.clone()).unwrap();
        let mut s = 77u64;
        let mut objs = Vec::new();
        for i in 0..200 {
            let r = rand_rect(&mut s, 2, 0.3);
            let v = (i % 7) as f64 - 2.0;
            live.insert(&r, v).unwrap();
            objs.push((r, v));
        }
        persist_corner_engine(&live, &space).unwrap();
        store.commit().unwrap();

        let snap_engine = SnapshotBoxSum::open(store.snapshot().unwrap()).unwrap();
        assert_eq!(snap_engine.dim(), 2);
        assert_eq!(snap_engine.len(), 200);
        assert_eq!(snap_engine.bounds(), &space);
        for _ in 0..60 {
            let q = rand_rect(&mut s, 2, 0.5);
            let a = live.query(&q).unwrap();
            let b = snap_engine.query(&q).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn snapshot_engine_pins_its_epoch_across_later_commits() {
        let store = wal_store();
        let space = unit_space(2);
        let mut live = SimpleBoxSum::batree_in(space, store.clone()).unwrap();
        let obj = Rect::from_bounds(&[(0.2, 0.4), (0.2, 0.4)]);
        live.insert(&obj, 5.0).unwrap();
        persist_corner_engine(&live, &space).unwrap();
        store.commit().unwrap();

        let pinned = SnapshotBoxSum::open(store.snapshot().unwrap()).unwrap();
        let q = unit_space(2);
        assert_eq!(pinned.query(&q).unwrap(), 5.0);

        // Mutate and commit after the snapshot: the pinned engine keeps
        // answering from its epoch.
        live.insert(&obj, 3.0).unwrap();
        persist_corner_engine(&live, &space).unwrap();
        store.commit().unwrap();
        assert_eq!(pinned.query(&q).unwrap(), 5.0);
        assert_eq!(pinned.len(), 1, "len frozen at the pinned epoch");

        let fresh = SnapshotBoxSum::open(store.snapshot().unwrap()).unwrap();
        assert_eq!(fresh.query(&q).unwrap(), 8.0);
        assert_eq!(fresh.len(), 2);
    }

    #[test]
    fn open_corner_engine_round_trips_the_catalog() {
        let store = wal_store();
        let space = unit_space(3);
        let mut live = SimpleBoxSum::batree_in(space, store.clone()).unwrap();
        let mut s = 99u64;
        let mut objs = Vec::new();
        for i in 0..80 {
            let r = rand_rect(&mut s, 3, 0.3);
            let v = (i % 5) as f64 + 1.0;
            live.insert(&r, v).unwrap();
            objs.push((r, v));
        }
        persist_corner_engine(&live, &space).unwrap();
        store.commit().unwrap();

        let (mut reopened, got_space) = open_corner_engine(&store).unwrap();
        assert_eq!(got_space, space);
        assert_eq!(reopened.len(), 80);
        for _ in 0..30 {
            let q = rand_rect(&mut s, 3, 0.5);
            let a = live.query(&q).unwrap();
            let b = reopened.query(&q).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn dominance_sum_matches_the_querys_corner_terms() {
        let store = wal_store();
        let space = unit_space(2);
        let mut live = SimpleBoxSum::batree_in(space, store.clone()).unwrap();
        let mut s = 5u64;
        for i in 0..100 {
            live.insert(&rand_rect(&mut s, 2, 0.3), (i % 3) as f64 + 1.0)
                .unwrap();
        }
        persist_corner_engine(&live, &space).unwrap();
        store.commit().unwrap();
        let eng = SnapshotBoxSum::open(store.snapshot().unwrap()).unwrap();
        let q = rand_rect(&mut s, 2, 0.5);
        // Recompose the box-sum from raw dominance terms.
        let mut acc = 0.0;
        for mask in 0..4usize {
            let y = corner_query_point(&q, 2, mask);
            let t = eng.dominance_sum(mask, &y).unwrap();
            if (mask.count_ones() & 1) == 0 {
                acc += t;
            } else {
                acc -= t;
            }
        }
        assert_eq!(acc.to_bits(), eng.query(&q).unwrap().to_bits());
        assert!(eng.dominance_sum(4, &Point::zeros(2)).is_err());
    }

    #[test]
    fn open_without_a_persisted_engine_is_a_typed_error() {
        let store = wal_store();
        store.commit().unwrap();
        let err = SnapshotBoxSum::open(store.snapshot().unwrap()).unwrap_err();
        assert!(err.to_string().contains("meta/objects"), "got: {err}");
        let err = open_corner_engine(&store).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("meta/objects"), "got: {err}");
    }

    #[test]
    fn snapshot_engines_share_the_node_cache_across_queries() {
        let store = wal_store();
        let space = unit_space(2);
        let mut live = SimpleBoxSum::batree_in(space, store.clone()).unwrap();
        let mut s = 31u64;
        for i in 0..400 {
            live.insert(&rand_rect(&mut s, 2, 0.2), (i % 4) as f64 + 1.0)
                .unwrap();
        }
        persist_corner_engine(&live, &space).unwrap();
        store.commit().unwrap();

        let queries: Vec<Rect> = (0..16).map(|_| rand_rect(&mut s, 2, 0.4)).collect();
        // One snapshot per query, as an unbatched server runs them.
        let serial = || {
            let (mut answers, mut accesses, mut decodes) = (Vec::new(), 0, 0);
            for q in &queries {
                let eng = SnapshotBoxSum::open(store.snapshot().unwrap()).unwrap();
                answers.push(eng.query(q).unwrap().to_bits());
                let (a, d) = eng.snapshot().node_reads();
                accesses += a;
                decodes += d;
            }
            (answers, accesses, decodes)
        };
        let (cold_answers, cold_accesses, cold_decodes) = serial();
        // With no commits, every page is decoded at most once: queries
        // share the upper index levels through the one cache.
        assert!(
            cold_decodes <= store.live_pages(),
            "{cold_decodes} decodes for {} pages",
            store.live_pages()
        );
        assert!(
            cold_decodes < cold_accesses,
            "queries never shared a decode: {cold_decodes} of {cold_accesses}"
        );
        // The same queries again, on fresh snapshots: all hits.
        let (warm_answers, warm_accesses, warm_decodes) = serial();
        assert_eq!(warm_answers, cold_answers);
        assert_eq!((warm_accesses, warm_decodes), (cold_accesses, 0));

        // One snapshot executing the whole batch: same traversal, same
        // answers, no decodes.
        let eng = SnapshotBoxSum::open(store.snapshot().unwrap()).unwrap();
        let batched: Vec<u64> = queries
            .iter()
            .map(|q| eng.query(q).unwrap().to_bits())
            .collect();
        assert_eq!(batched, cold_answers, "batching must be invisible");
        assert_eq!(eng.snapshot().node_reads(), (cold_accesses, 0));
    }
}
