//! Process-wide transform-plan cache: the exchange-geometry companion to
//! [`cfft::PlanCache`].
//!
//! A distributed transform needs two kinds of "plans": the 1-D FFT kernels
//! (cached process-wide by [`cfft::PlanCache`]) and the per-tile all-to-all
//! schedule geometry — per-destination send counts, per-source receive
//! counts, and their displacements, one set per communication tile. Today's
//! entry points recompute the latter on every call (four `Vec` allocations
//! per tile per run). This cache hoists that to process scope, keyed by
//! `(p, rank, nx, ny, nz, t)`: any repeat of a geometry this process has
//! transformed before does **zero schedule setup**, completing the
//! zero-planning story the plan cache started.
//!
//! The cached data is *passive* — pure integer geometry derived from the
//! problem shape and block decomposition, independent of any live
//! communicator or world. That is what makes a process-wide cache safe:
//! unlike a persistent collective (which pins runtime state and must be
//! freed before its world tears down), geometry can outlive any number of
//! worlds and be shared freely across rank threads via `Arc`.
//!
//! The live half of the plan is [`TilePlans`]: one persistent all-to-all
//! per tile, built lazily from that tile's [`TileExchange`] and owned by
//! the session that executes it. Every real-backend tile exchange — slab
//! and pencil, session or one-shot call — runs through it.

use crate::decomp::{AxisSplit, Decomp};
use crate::params::ProblemSpec;
use cfft::Complex64;
use mpisim::{CollError, Comm, PersistentAlltoall};
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Bound on resident geometries; far above a realistic working set but keeps
/// a pathological caller (e.g. a tuner sweeping thousands of tile sizes)
/// from growing the map without limit.
const DEFAULT_CAPACITY: usize = 1024;

/// One tile's exchange geometry: everything a persistent plan's
/// `alltoallv_init` needs besides the data itself.
#[derive(Debug)]
pub struct TileExchange {
    /// Elements this rank sends to each destination rank.
    pub send_counts: Arc<[usize]>,
    /// Exclusive prefix sums of `send_counts`.
    pub send_displs: Arc<[usize]>,
    /// Elements this rank receives from each source rank.
    pub recv_counts: Arc<[usize]>,
    /// Exclusive prefix sums of `recv_counts`.
    pub recv_displs: Arc<[usize]>,
    /// Total elements staged on the send side.
    pub total_send: usize,
    /// Total elements arriving on the receive side.
    pub total_recv: usize,
}

/// The full per-rank schedule geometry of one `(spec, t)` transform: one
/// [`TileExchange`] per communication tile (the last tile may be shorter).
#[derive(Debug)]
pub struct ExchangeGeometry {
    /// Per-tile exchange shapes, indexed by tile number.
    pub tiles: Vec<Arc<TileExchange>>,
}

/// The per-rank schedule geometry of one pencil transform: the row
/// exchange's tiles (z ↔ y within the rank's row, tiled along local x) and
/// the column exchange's tiles (y ↔ x within the rank's column, tiled along
/// local z). Counts are sized for the subcommunicator, not the world:
/// `row[i].send_counts.len() == pc`, `col[i].send_counts.len() == pr`.
#[derive(Debug)]
pub struct PencilGeometry {
    /// Stage-1 (row exchange) tiles, indexed along local x.
    pub row: Vec<Arc<TileExchange>>,
    /// Stage-2 (column exchange) tiles, indexed along local z.
    pub col: Vec<Arc<TileExchange>>,
}

fn displs(counts: &[usize]) -> Vec<usize> {
    let mut d = vec![0usize; counts.len()];
    for i in 1..counts.len() {
        d[i] = d[i - 1] + counts[i - 1];
    }
    d
}

fn build(spec: &ProblemSpec, rank: usize, t: usize) -> ExchangeGeometry {
    let decomp = Decomp::new(spec.nx, spec.ny, spec.p);
    let nxl = decomp.x.count(rank);
    let nyl = decomp.y.count(rank);
    let k = spec.nz.div_ceil(t.max(1));
    let tiles = (0..k)
        .map(|tile| {
            let z0 = tile * t;
            let tz = (z0 + t).min(spec.nz) - z0;
            let send_counts: Vec<usize> =
                (0..spec.p).map(|q| tz * nxl * decomp.y.count(q)).collect();
            let recv_counts: Vec<usize> =
                (0..spec.p).map(|s| tz * decomp.x.count(s) * nyl).collect();
            group_tile(send_counts, recv_counts)
        })
        .collect();
    ExchangeGeometry { tiles }
}

/// One tile's counts over a subgroup of `peers` ranks: the shared shape of
/// both pencil stages (and of the slab build above, with `peers = p`).
fn group_tile(send_counts: Vec<usize>, recv_counts: Vec<usize>) -> Arc<TileExchange> {
    Arc::new(TileExchange {
        send_displs: displs(&send_counts).into(),
        recv_displs: displs(&recv_counts).into(),
        total_send: send_counts.iter().sum(),
        total_recv: recv_counts.iter().sum(),
        send_counts: send_counts.into(),
        recv_counts: recv_counts.into(),
    })
}

fn build_pencil(spec: &ProblemSpec, pr: usize, pc: usize, rank: usize, t: usize) -> PencilGeometry {
    let (row, col) = (rank / pc, rank % pc);
    let xs = AxisSplit::new(spec.nx, pr); // X_r
    let ys = AxisSplit::new(spec.ny, pc); // Y_c
    let zs = AxisSplit::new(spec.nz, pc); // Z_c
    let y2s = AxisSplit::new(spec.ny, pr); // Y2_r
    let (nxl, nyc) = (xs.count(row), ys.count(col));
    let nzl = zs.count(col);
    let ny2l = y2s.count(row);

    // Stage 1 tiles along local x. Every member of the row shares `row`,
    // hence nxl and the tile partition — the counts below therefore agree
    // pairwise across the row communicator.
    let xt = t.clamp(1, nxl.max(1));
    let k1 = nxl.div_ceil(xt);
    let row_tiles = (0..k1)
        .map(|i| {
            let x0 = i * xt;
            let cnt = (x0 + xt).min(nxl) - x0;
            let send: Vec<usize> = (0..pc).map(|j| cnt * nyc * zs.count(j)).collect();
            let recv: Vec<usize> = (0..pc).map(|s| cnt * ys.count(s) * nzl).collect();
            group_tile(send, recv)
        })
        .collect();

    // Stage 2 tiles along local z. Every member of the column shares `col`,
    // hence nzl and the tile partition.
    let zt = t.clamp(1, nzl.max(1));
    let k2 = nzl.div_ceil(zt);
    let col_tiles = (0..k2)
        .map(|i| {
            let z0 = i * zt;
            let cnt = (z0 + zt).min(nzl) - z0;
            let send: Vec<usize> = (0..pr).map(|j| nxl * y2s.count(j) * cnt).collect();
            let recv: Vec<usize> = (0..pr).map(|s| xs.count(s) * ny2l * cnt).collect();
            group_tile(send, recv)
        })
        .collect();

    PencilGeometry {
        row: row_tiles,
        col: col_tiles,
    }
}

/// Per-tile persistent exchange plans over one communicator — the live
/// companion of a geometry's [`TileExchange`]s.
///
/// A tile's plan is initialised (`alltoallv_init`) the first time the tile
/// posts and merely restarted on every later post, so a table executed `R`
/// times pays one setup per tile, not `R`. Receive staging is one buffer
/// per tile, registered at init and lent out between wait and unpack.
/// Cancelling a tile frees its plan (purging any in-flight execution); the
/// slot re-initialises on the next post. Dropping the table frees every
/// plan, so no exit path — `?`, error, or unwind — leaks one (MC006).
///
/// `C` is how the table holds its communicator: borrowed (`&Comm`) by a
/// slab session, owned (`Comm`) for a pencil session's subcommunicators.
pub(crate) struct TilePlans<C: Borrow<Comm>> {
    comm: C,
    plans: Vec<Option<PersistentAlltoall<Complex64>>>,
    setups: u64,
}

impl<C: Borrow<Comm>> TilePlans<C> {
    /// An empty table of `tiles` slots over `comm`; no setup happens here.
    pub(crate) fn new(comm: C, tiles: usize) -> Self {
        TilePlans {
            comm,
            plans: (0..tiles).map(|_| None).collect(),
            setups: 0,
        }
    }

    /// The communicator every plan of the table runs on.
    pub(crate) fn comm(&self) -> &Comm {
        self.comm.borrow()
    }

    /// Resizes the table to `tiles` slots; a no-op when already that size.
    /// A resize frees every live plan first.
    pub(crate) fn fit(&mut self, tiles: usize) {
        if self.plans.len() != tiles {
            self.free_all();
            self.plans.resize_with(tiles, || None);
        }
    }

    /// Plan initialisations over the table's lifetime.
    pub(crate) fn setups(&self) -> u64 {
        self.setups
    }

    /// Tiles whose plan is currently initialised.
    pub(crate) fn live(&self) -> usize {
        self.plans.iter().flatten().count()
    }

    /// Starts `tile`'s exchange of `send`, initialising the tile's plan
    /// from its geometry `xg` on first use.
    pub(crate) fn start(&mut self, tile: usize, xg: &TileExchange, send: &[Complex64]) {
        let comm = self.comm.borrow();
        if self.plans[tile].is_none() {
            let recv = vec![Complex64::ZERO; xg.total_recv];
            self.plans[tile] = Some(comm.alltoallv_init(&xg.send_counts, &xg.recv_counts, recv));
            self.setups += 1;
        }
        self.plans[tile]
            .as_mut()
            .expect("just initialised")
            .start(comm, send);
    }

    /// One `MPI_Test` on `tile`'s execution.
    pub(crate) fn try_test(&mut self, tile: usize) -> Result<bool, CollError> {
        live_plan(&mut self.plans, tile).try_test(self.comm.borrow())
    }

    /// Waits for `tile`'s execution and lends out its receive buffer,
    /// which must come back through [`Self::restore_recv`] before the
    /// tile's next start. `None` blocks until completion (panicking on an
    /// unrecoverable fault); with a timeout, a stall comes back as the
    /// typed error and the execution stays live for a retry or a cancel.
    pub(crate) fn wait(
        &mut self,
        tile: usize,
        timeout: Option<Duration>,
    ) -> Result<Vec<Complex64>, CollError> {
        let comm = self.comm.borrow();
        let plan = live_plan(&mut self.plans, tile);
        match timeout {
            None => {
                plan.wait(comm);
            }
            Some(timeout) => plan.wait_timeout(comm, timeout)?,
        }
        Ok(plan.take_recv())
    }

    /// Returns a buffer lent out by [`Self::wait`] to `tile`'s plan.
    pub(crate) fn restore_recv(&mut self, tile: usize, recv: Vec<Complex64>) {
        live_plan(&mut self.plans, tile).restore_recv(recv);
    }

    /// Abandons `tile`'s exchange by freeing its plan, purging whatever
    /// the execution staged in this rank's mailbox.
    pub(crate) fn cancel(&mut self, tile: usize) {
        if let Some(plan) = self.plans[tile].take() {
            plan.free(self.comm.borrow());
        }
    }

    /// Frees every live plan; returns how many there were.
    pub(crate) fn free_all(&mut self) -> usize {
        let comm = self.comm.borrow();
        let mut freed = 0;
        for plan in self.plans.iter_mut().filter_map(Option::take) {
            plan.free(comm);
            freed += 1;
        }
        freed
    }
}

/// The initialised plan of `tile`, which an in-flight or waited exchange
/// always has.
fn live_plan(
    plans: &mut [Option<PersistentAlltoall<Complex64>>],
    tile: usize,
) -> &mut PersistentAlltoall<Complex64> {
    plans[tile]
        .as_mut()
        .expect("exchange of a tile without its plan")
}

impl<C: Borrow<Comm>> Drop for TilePlans<C> {
    fn drop(&mut self) {
        self.free_all();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GeomKey {
    p: usize,
    rank: usize,
    nx: usize,
    ny: usize,
    nz: usize,
    t: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PencilKey {
    pr: usize,
    pc: usize,
    rank: usize,
    nx: usize,
    ny: usize,
    nz: usize,
    t: usize,
}

struct Entry {
    geom: Arc<ExchangeGeometry>,
    last_used: u64,
}

struct Inner {
    map: HashMap<GeomKey, Entry>,
    clock: u64,
    hits: u64,
    misses: u64,
}

struct PencilEntry {
    geom: Arc<PencilGeometry>,
    last_used: u64,
}

struct PencilInner {
    map: HashMap<PencilKey, PencilEntry>,
    clock: u64,
    hits: u64,
    misses: u64,
}

/// Counters describing the cache's lifetime behaviour (mirrors
/// [`cfft::CacheStats`] for the geometry side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeomCacheStats {
    /// Lookups served from the map.
    pub hits: u64,
    /// Lookups that had to build the geometry.
    pub misses: u64,
    /// Geometries currently resident.
    pub entries: usize,
}

/// Thread-safe LRU store of [`ExchangeGeometry`]s, with a process-wide
/// [`TransformPlanCache::global`] instance shared by every transform entry
/// point (the same discipline as [`cfft::PlanCache`]).
pub struct TransformPlanCache {
    inner: Mutex<Inner>,
    pencil: Mutex<PencilInner>,
    capacity: usize,
}

impl TransformPlanCache {
    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty cache evicting least-recently-used geometries beyond
    /// `capacity` (≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be ≥ 1");
        TransformPlanCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
                hits: 0,
                misses: 0,
            }),
            pencil: Mutex::new(PencilInner {
                map: HashMap::new(),
                clock: 0,
                hits: 0,
                misses: 0,
            }),
            capacity,
        }
    }

    /// The shared process-wide instance.
    pub fn global() -> &'static TransformPlanCache {
        static GLOBAL: OnceLock<TransformPlanCache> = OnceLock::new();
        GLOBAL.get_or_init(TransformPlanCache::new)
    }

    /// The cached geometry for `rank`'s view of `(spec, t)`, building (and
    /// caching) on first use. The boolean is `true` on a hit — i.e. when
    /// this call did zero schedule setup.
    pub fn geometry(
        &self,
        spec: &ProblemSpec,
        rank: usize,
        t: usize,
    ) -> (Arc<ExchangeGeometry>, bool) {
        let key = GeomKey {
            p: spec.p,
            rank,
            nx: spec.nx,
            ny: spec.ny,
            nz: spec.nz,
            t,
        };
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(e) = inner.map.get_mut(&key) {
            e.last_used = clock;
            let geom = e.geom.clone();
            inner.hits += 1;
            return (geom, true);
        }
        // Build under the lock: when all p rank threads arrive at once only
        // one of them computes (the geometry is tiny; contention is not).
        let geom = Arc::new(build(spec, rank, t));
        inner.misses += 1;
        if inner.map.len() >= self.capacity {
            // Evict the least-recently-used entry (never the one being
            // inserted — it is not in the map yet).
            if let Some(&victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                inner.map.remove(&victim);
            }
        }
        inner.map.insert(
            key,
            Entry {
                geom: geom.clone(),
                last_used: clock,
            },
        );
        (geom, false)
    }

    /// The cached pencil geometry for `rank`'s view of `(spec, pr × pc, t)`
    /// — both stages' per-tile counts, sized for the row/column
    /// subcommunicators. Builds (and caches) on first use; the boolean is
    /// `true` on a hit.
    pub fn pencil_geometry(
        &self,
        spec: &ProblemSpec,
        pr: usize,
        pc: usize,
        rank: usize,
        t: usize,
    ) -> (Arc<PencilGeometry>, bool) {
        let key = PencilKey {
            pr,
            pc,
            rank,
            nx: spec.nx,
            ny: spec.ny,
            nz: spec.nz,
            t,
        };
        let mut inner = self.pencil.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(e) = inner.map.get_mut(&key) {
            e.last_used = clock;
            let geom = e.geom.clone();
            inner.hits += 1;
            return (geom, true);
        }
        let geom = Arc::new(build_pencil(spec, pr, pc, rank, t));
        inner.misses += 1;
        if inner.map.len() >= self.capacity {
            if let Some(&victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                inner.map.remove(&victim);
            }
        }
        inner.map.insert(
            key,
            PencilEntry {
                geom: geom.clone(),
                last_used: clock,
            },
        );
        (geom, false)
    }

    /// A snapshot of the cache's counters.
    pub fn stats(&self) -> GeomCacheStats {
        let inner = self.inner.lock();
        GeomCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
        }
    }

    /// A snapshot of the pencil-geometry side's counters.
    pub fn pencil_stats(&self) -> GeomCacheStats {
        let inner = self.pencil.lock();
        GeomCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
        }
    }
}

impl Default for TransformPlanCache {
    fn default() -> Self {
        TransformPlanCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ProblemSpec {
        ProblemSpec {
            nx: 10,
            ny: 9,
            nz: 8,
            p: 4,
        }
    }

    #[test]
    fn second_lookup_is_a_hit_sharing_the_same_geometry() {
        let cache = TransformPlanCache::new();
        let (a, hit_a) = cache.geometry(&spec(), 1, 3);
        let (b, hit_b) = cache.geometry(&spec(), 1, 3);
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn geometry_matches_the_hand_computed_counts() {
        // spec 10×9×8 on p=4: x blocks 3,3,2,2; y blocks 3,2,2,2.
        let (g, _) = TransformPlanCache::new().geometry(&spec(), 0, 3);
        assert_eq!(g.tiles.len(), 3, "⌈8/3⌉ tiles");
        let t0 = &g.tiles[0];
        // Rank 0: nxl=3. send_counts[q] = tz·nxl·nyl_q = 3·3·{3,2,2,2}.
        assert_eq!(&*t0.send_counts, &[27, 18, 18, 18]);
        assert_eq!(&*t0.send_displs, &[0, 27, 45, 63]);
        // recv_counts[s] = tz·nxl_s·nyl = 3·{3,3,2,2}·3.
        assert_eq!(&*t0.recv_counts, &[27, 27, 18, 18]);
        assert_eq!(t0.total_send, 81);
        assert_eq!(t0.total_recv, 90);
        // Last tile is short: tz = 8 − 6 = 2.
        let t2 = &g.tiles[2];
        assert_eq!(&*t2.send_counts, &[18, 12, 12, 12]);
    }

    #[test]
    fn keys_separate_rank_and_tile_size() {
        let cache = TransformPlanCache::new();
        let (a, _) = cache.geometry(&spec(), 0, 3);
        let (b, _) = cache.geometry(&spec(), 1, 3);
        let (c, _) = cache.geometry(&spec(), 0, 4);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn eviction_is_lru_and_never_evicts_the_inserted_key() {
        let cache = TransformPlanCache::with_capacity(2);
        cache.geometry(&spec(), 0, 1);
        cache.geometry(&spec(), 0, 2);
        // Touch t=1 so t=2 is the LRU victim when t=3 arrives.
        let (_, hit) = cache.geometry(&spec(), 0, 1);
        assert!(hit);
        let (_, hit) = cache.geometry(&spec(), 0, 3);
        assert!(!hit, "fresh insert is a miss, not its own victim");
        assert_eq!(cache.stats().entries, 2);
        let (_, hit) = cache.geometry(&spec(), 0, 3);
        assert!(hit, "the entry just inserted at capacity must survive");
        let (_, hit) = cache.geometry(&spec(), 0, 2);
        assert!(!hit, "the LRU entry was the one evicted");
    }

    #[test]
    fn pencil_geometry_caches_and_counts_match_pairwise() {
        let cache = TransformPlanCache::new();
        let spec = ProblemSpec {
            nx: 7,
            ny: 9,
            nz: 10,
            p: 6,
        };
        let (pr, pc) = (3, 2);
        let (a, hit_a) = cache.pencil_geometry(&spec, pr, pc, 0, 2);
        let (b, hit_b) = cache.pencil_geometry(&spec, pr, pc, 0, 2);
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.pencil_stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));

        // Pairwise consistency: what rank (r, c) sends to row-peer j must be
        // what (r, j) expects from source c, tile by tile — and likewise for
        // the column exchange. This is the invariant every exchange asserts at
        // runtime; pin it statically here.
        let geoms: Vec<_> = (0..spec.p)
            .map(|rank| cache.pencil_geometry(&spec, pr, pc, rank, 2).0)
            .collect();
        for r in 0..pr {
            for c in 0..pc {
                let me = &geoms[r * pc + c];
                for j in 0..pc {
                    let peer = &geoms[r * pc + j];
                    assert_eq!(me.row.len(), peer.row.len(), "row tile counts agree");
                    for (ti, tile) in me.row.iter().enumerate() {
                        assert_eq!(
                            tile.send_counts[j], peer.row[ti].recv_counts[c],
                            "row tile {ti}: ({r},{c})→({r},{j})"
                        );
                    }
                }
                for j in 0..pr {
                    let peer = &geoms[j * pc + c];
                    assert_eq!(me.col.len(), peer.col.len(), "col tile counts agree");
                    for (ti, tile) in me.col.iter().enumerate() {
                        assert_eq!(
                            tile.send_counts[j], peer.col[ti].recv_counts[r],
                            "col tile {ti}: ({r},{c})→({j},{c})"
                        );
                    }
                }
            }
        }
        // Totals over all tiles cover the full local block on both sides.
        let xs = AxisSplit::new(spec.nx, pr);
        let ys = AxisSplit::new(spec.ny, pc);
        let zs = AxisSplit::new(spec.nz, pc);
        for r in 0..pr {
            for c in 0..pc {
                let g = &geoms[r * pc + c];
                let sent: usize = g.row.iter().map(|t| t.total_send).sum();
                assert_eq!(sent, xs.count(r) * ys.count(c) * spec.nz);
                let recvd: usize = g.row.iter().map(|t| t.total_recv).sum();
                assert_eq!(recvd, xs.count(r) * spec.ny * zs.count(c));
            }
        }
    }

    #[test]
    fn global_is_shared_across_call_sites() {
        let (a, _) = TransformPlanCache::global().geometry(&spec(), 3, 5);
        let (b, hit) = TransformPlanCache::global().geometry(&spec(), 3, 5);
        assert!(hit);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
