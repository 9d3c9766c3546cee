//! Real execution backend: the distributed 3-D FFT running on actual data
//! over the [`mpisim`] runtime, with [`cfft`] kernels.
//!
//! This backend exists to prove the *algorithm* correct — every variant
//! (NEW, NEW-0, TH, FFTW-style) must reproduce the serial reference
//! transform bit-for-bit (up to floating-point tolerance) for any problem
//! shape, divisible or not. The performance story is told by the simulated
//! backend; here the timings are real wall-clock and only meaningful for
//! laptop-scale smoke benchmarks.

use crate::breakdown::{RunStats, StepTimes};
use crate::decomp::Decomp;
use crate::error::{Error, IntegrityStage};
use crate::params::{ParamError, ProblemSpec, TuningParams};
use crate::pipeline::{try_run_new, try_run_th, OverlapEnv, Recovery, Resilience};
use crate::trace::{DegradeAction, EventKind, NoopRecorder, Recorder, TraceEvent};
use crate::xplan::{ExchangeGeometry, TileExchange, TilePlans, TransformPlanCache};
use cfft::batch::{
    execute_batch_threaded, execute_lines_threaded, for_each_part_threaded, for_each_row_threaded,
    BatchLayout,
};
use cfft::planner::{Plan1d, Rigor};
use cfft::transpose::{permute3_threaded, xzy_fast_threaded, Dims3, XYZ_TO_ZXY};
use cfft::{Complex64, Direction, PlanCache};
use faultplan::{checksum, flip_seeded_bit};
use mpisim::{CollError, Comm};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pins a backend fault to the tile whose exchange it hit. Shared with the
/// pencil backend, whose stage-2 tiles are numbered after stage 1's.
pub(crate) fn coll_to_error(tile: usize, e: CollError) -> Error {
    match e {
        CollError::Stalled { round, peer } => Error::Stalled { tile, round, peer },
        CollError::Dropped { round, peer } => Error::Dropped { tile, round, peer },
        CollError::RankFailed(rank) => Error::RankFailed { tile, rank },
        CollError::Revoked => Error::Revoked { tile },
        CollError::Corrupt { .. } => Error::IntegrityFailed {
            tile,
            stage: IntegrityStage::Wire,
        },
    }
}

/// Which algorithm variant to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The paper's NEW: full ten-parameter overlap pipeline (use
    /// [`TuningParams::without_overlap`] for NEW-0).
    New,
    /// Hoefler et al.'s TH: overlap restricted to FFTy+Pack, no loop
    /// tiling, naive transpose.
    Th,
    /// FFTW-style baseline: one blocking all-to-all over the whole slab,
    /// no tiles, no overlap.
    Fftw,
}

/// How the Transpose step is performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransposeStyle {
    /// §3.5 fast path (`x-z-y`), legal only when `Nx = Ny`.
    Fast,
    /// Cache-blocked generic `z-x-y` (the "FFTW guru" quality path).
    Generic,
    /// Unblocked triple loop — models TH's non-optimized rearrangement.
    Naive,
}

/// Output memory layout of the distributed transform (y-slab local array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutLayout {
    /// `(z, y_local, x)` with x contiguous — the standard path's result.
    Zyx,
    /// `(y_local, z, x)` with x contiguous — the §3.5 fast path's result.
    Yzx,
}

/// Result of a distributed execution on one rank.
pub struct RunOutput {
    /// This rank's y-slab of the transformed array.
    pub data: Vec<Complex64>,
    /// Layout of `data`.
    pub layout: OutLayout,
    /// Timing statistics.
    pub stats: RunStats,
    /// What the degradation ladder had to do (empty for a clean run, and
    /// always empty when the watchdog is disabled).
    pub recovery: Recovery,
    /// Planning time this call actually incurred. Exactly zero when every
    /// plan came from the process-wide [`PlanCache`] — i.e. for any repeat
    /// of a geometry this process has transformed before.
    pub planning: Duration,
    /// Exchange schedule setups this call performed: one per persistent
    /// per-tile plan it initialised. Plans are set up lazily on an
    /// [`FftSession`]'s first execution, so every execution after the first
    /// reports exactly zero — the setup-once / execute-many steady state. A
    /// one-shot call ([`try_fft3_dist`] and friends) is a session executed
    /// once and reports one setup per tile.
    pub exchange_setups: u64,
}

/// Request handle of the real backend: one execution of a tile's
/// persistent plan (the plan itself lives in the session's [`TilePlans`],
/// so the handle is just the tile number).
pub enum RealReq {
    /// In-flight execution of the persistent plan for this tile.
    Persistent(usize),
    /// No exchange was posted: the staged payload failed an integrity
    /// check at the named stage. The driver's wait surfaces the failure;
    /// for the Pack stage it can heal by [`OverlapEnv::retransmit`],
    /// because no peer ever saw (or sequenced) the withheld exchange.
    Poisoned(IntegrityStage),
}

/// Distributes polls evenly across a loop of `total_units` work units.
struct PollSchedule {
    total_units: u64,
    polls: u64,
    done: u64,
    issued: u64,
}

impl PollSchedule {
    fn new(total_units: usize, polls: u32) -> Self {
        PollSchedule {
            total_units: total_units.max(1) as u64,
            polls: polls as u64,
            done: 0,
            issued: 0,
        }
    }

    /// Marks one unit done; returns how many polls are now due.
    fn after_unit(&mut self) -> u64 {
        self.done += 1;
        let target = self.polls * self.done / self.total_units;
        let due = target - self.issued;
        self.issued = target;
        due
    }
}

struct RealEnv<'a, 'c> {
    comm: &'c Comm,
    spec: ProblemSpec,
    params: TuningParams,
    decomp: Decomp,
    /// Per-tile exchange geometry from the process-wide
    /// [`TransformPlanCache`] — never recomputed per call.
    geom: Arc<ExchangeGeometry>,
    /// The session's per-tile persistent plans, borrowed for one run.
    plans: &'a mut TilePlans<&'c Comm>,
    nxl: usize,
    nyl: usize,
    transpose_style: TransposeStyle,
    layout: OutLayout,
    plan_z: Arc<Plan1d>,
    plan_y: Arc<Plan1d>,
    plan_x: Arc<Plan1d>,
    plan_scratch: Vec<Complex64>,
    /// Input slab (x-y-z), consumed by FFTz+Transpose.
    input: Vec<Complex64>,
    /// Transposed slab: z-x-y (standard) or x-z-y (fast).
    zxy: Vec<Complex64>,
    /// Output slab: z-y-x or y-z-x.
    out: Vec<Complex64>,
    /// Per-destination-block staging for the current tile's pack.
    send: Vec<Complex64>,
    /// Elements the largest tile's pack can need; `send` never exceeds it.
    send_cap: usize,
    /// Resident hash over the packed staging buffer, set by the pack and
    /// re-verified at post time — memory SDC on the pack→post boundary is
    /// caught before the bytes reach any peer.
    send_hash: u64,
    /// ABFT checksum line: Σ over the sub-tile's batch, captured before the
    /// in-place transform and transformed alongside it (DESIGN.md §16).
    abft_line: Vec<Complex64>,
    /// Post-transform batch sum, compared against the transformed
    /// [`Self::abft_line`].
    abft_post: Vec<Complex64>,
    /// Receive buffer of the most recently waited tile, lent out by its
    /// plan until the unpack hands it back.
    pending_recv: Option<Vec<Complex64>>,
    /// Watchdog timeout for waits; `None` blocks forever (legacy).
    stall_timeout: Option<Duration>,
    /// `F*` multiplier applied by the ladder's boost-polls rung.
    poll_boost: u32,
    /// The boost is applied at most once per run.
    boosted: bool,
    steps: StepTimes,
    tests: u64,
    started: Instant,
    recorder: &'a mut dyn Recorder,
}

impl RealEnv<'_, '_> {
    fn tile_range(&self, tile: usize) -> (usize, usize) {
        let z0 = tile * self.params.t;
        let z1 = (z0 + self.params.t).min(self.spec.nz);
        (z0, z1)
    }

    /// One `MPI_Test` on `req`.
    fn try_test(&mut self, req: &mut RealReq) -> Result<bool, CollError> {
        match req {
            RealReq::Persistent(tile) => self.plans.try_test(*tile),
            // A withheld exchange never completes; the failure surfaces at
            // wait time, where the driver can heal it.
            RealReq::Poisoned(_) => Ok(false),
        }
    }

    fn poll_inflight(
        &mut self,
        inflight: &mut [(usize, RealReq)],
        times: u64,
    ) -> Result<(), Error> {
        if times == 0 || inflight.is_empty() {
            return Ok(());
        }
        if self.recorder.enabled() {
            // Traced path: time and record each poll individually so the
            // event stream shows which tile each `MPI_Test` touched and
            // whether it observed completion.
            for _ in 0..times {
                for (tile, req) in inflight.iter_mut() {
                    let t0 = Instant::now();
                    let result = self.try_test(req);
                    let t1 = Instant::now();
                    self.tests += 1;
                    self.steps.test += (t1 - t0).as_secs_f64();
                    let tile = *tile;
                    let completed = result.map_err(|e| coll_to_error(tile, e))?;
                    self.record_span(t0, t1, EventKind::Test { tile, completed });
                }
            }
        } else {
            let t0 = Instant::now();
            let mut failed = None;
            'polls: for _ in 0..times {
                for (tile, req) in inflight.iter_mut() {
                    self.tests += 1;
                    if let Err(e) = self.try_test(req) {
                        failed = Some(coll_to_error(*tile, e));
                        break 'polls;
                    }
                }
            }
            self.steps.test += t0.elapsed().as_secs_f64();
            if let Some(e) = failed {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Records one traced span; no-op (and no timestamp math) when tracing
    /// is disabled.
    fn record_span(&mut self, t0: Instant, t1: Instant, kind: EventKind) {
        if self.recorder.enabled() {
            self.recorder.record(TraceEvent {
                start: t0.duration_since(self.started).as_secs_f64(),
                end: t1.duration_since(self.started).as_secs_f64(),
                kind,
            });
        }
    }

    /// Flat index into the transposed slab for `(z, xl, y)`.
    #[inline]
    fn zxy_idx(&self, z: usize, xl: usize, y: usize) -> usize {
        match self.transpose_style {
            TransposeStyle::Fast => (xl * self.spec.nz + z) * self.spec.ny + y,
            _ => (z * self.nxl + xl) * self.spec.ny + y,
        }
    }

    /// Flat index into the output slab for `(z, yl, x)`.
    #[inline]
    fn out_idx(&self, z: usize, yl: usize, x: usize) -> usize {
        match self.layout {
            OutLayout::Zyx => (z * self.nyl + yl) * self.spec.nx + x,
            OutLayout::Yzx => (yl * self.spec.nz + z) * self.spec.nx + x,
        }
    }

    /// Posts `tile`'s exchange from the current staging buffer. Shared by
    /// the normal post path and [`OverlapEnv::retransmit`]; deliberately
    /// free of the crash/bit-flip injection points so a retransmitted
    /// exchange is never re-poisoned by the same planned fault.
    fn post_exchange(&mut self, tile: usize, xg: &TileExchange) -> RealReq {
        let t0 = Instant::now();
        // The tile's plan is initialised on its first post; every later
        // post just starts it — zero per-execution negotiation.
        self.plans.start(tile, xg, &self.send[..xg.total_send]);
        let t1 = Instant::now();
        self.steps.ialltoall += (t1 - t0).as_secs_f64();
        let bytes = (xg.total_send * std::mem::size_of::<Complex64>()) as u64;
        self.record_span(t0, t1, EventKind::PostA2a { tile, bytes });
        RealReq::Persistent(tile)
    }
}

/// Accumulates the batch sum of `starts.len()` rows of `data`, each `n`
/// elements long, into `dst` (cleared first) — the ABFT checksum line.
fn abft_sum_rows(dst: &mut Vec<Complex64>, data: &[Complex64], starts: &[usize], n: usize) {
    dst.clear();
    dst.resize(n, Complex64::ZERO);
    for &s in starts {
        for (acc, v) in dst.iter_mut().zip(&data[s..s + n]) {
            *acc += *v;
        }
    }
}

/// Relative ABFT tolerance. FFT roundoff on the checksum comparison is
/// ~1e-13 of the batch scale on realistic sizes, four orders below this
/// threshold — while a flipped sign, exponent, or high-mantissa bit lands
/// many orders above it. (Flips of the lowest mantissa bits are below any
/// tolerance an f64 check can hold and are numerically inconsequential.)
const ABFT_TOL: f64 = 1e-9;

/// Whether the transformed checksum line equals the post-transform batch
/// sum within tolerance — the linearity identity FFT(Σ) = Σ FFT(·).
fn abft_agrees(sum_fft: &[Complex64], post_sum: &[Complex64], batch: usize) -> bool {
    let mut scale = 1.0f64;
    let mut worst = 0.0f64;
    for (a, b) in sum_fft.iter().zip(post_sum) {
        scale = scale.max(a.abs()).max(b.abs());
        worst = worst.max((*a - *b).abs());
    }
    worst <= ABFT_TOL * scale * (batch.max(sum_fft.len()).max(1)) as f64
}

impl OverlapEnv for RealEnv<'_, '_> {
    type Req = RealReq;

    fn num_tiles(&self) -> usize {
        self.params.tiles(&self.spec)
    }

    fn window(&self) -> usize {
        self.params.w
    }

    fn fftz_transpose(&mut self) {
        let (nx_l, ny, nz) = (self.nxl, self.spec.ny, self.spec.nz);
        let threads = self.params.threads;
        // FFTz: z lines are contiguous in the x-y-z input.
        let t0 = Instant::now();
        if threads > 1 {
            execute_batch_threaded(
                &self.plan_z,
                &mut self.input,
                BatchLayout::contiguous(nz, nx_l * ny),
                threads,
            );
        } else {
            for line in 0..nx_l * ny {
                let s = line * nz;
                self.plan_z
                    .execute(&mut self.input[s..s + nz], &mut self.plan_scratch);
            }
        }
        let t1 = Instant::now();
        self.steps.fftz += (t1 - t0).as_secs_f64();
        self.record_span(t0, t1, EventKind::Fftz);

        // Transpose into the tile-friendly layout. The `_threaded` kernels
        // fall back to the sequential blocked code at `threads = 1`.
        let t0 = Instant::now();
        let sd = Dims3::new(nx_l, ny, nz);
        match self.transpose_style {
            TransposeStyle::Fast => xzy_fast_threaded(&self.input, &mut self.zxy, sd, threads),
            TransposeStyle::Generic => {
                permute3_threaded(&self.input, &mut self.zxy, sd, XYZ_TO_ZXY, threads)
            }
            TransposeStyle::Naive => {
                // Deliberately unblocked: models a straightforward loop nest.
                for x in 0..nx_l {
                    for y in 0..ny {
                        for z in 0..nz {
                            self.zxy[(z * nx_l + x) * ny + y] = self.input[(x * ny + y) * nz + z];
                        }
                    }
                }
            }
        }
        let t1 = Instant::now();
        self.steps.transpose += (t1 - t0).as_secs_f64();
        self.record_span(t0, t1, EventKind::Transpose);
    }

    fn ffty_pack(&mut self, tile: usize, inflight: &mut [(usize, Self::Req)]) -> Result<(), Error> {
        let (z0, z1) = self.tile_range(tile);
        let tz = z1 - z0;
        let ny = self.spec.ny;
        let nxl = self.nxl;
        let (px, pz) = (
            self.params.px.min(nxl.max(1)),
            self.params.pz.min(tz.max(1)),
        );
        if nxl == 0 || tz == 0 {
            // Nothing staged: the resident hash must cover the empty
            // payload this tile will post.
            self.send_hash = checksum::<Complex64>(&[]);
            return Ok(());
        }

        // Sub-tile grid (Figure 4, left): Px × Ny × Pz blocks.
        let xblocks = nxl.div_ceil(px);
        let zblocks = tz.div_ceil(pz);
        let subtiles = xblocks * zblocks;
        let mut sched_y = PollSchedule::new(subtiles, self.params.fy);
        let mut sched_p = PollSchedule::new(subtiles, self.params.fp);

        let xg = self.geom.tiles[tile].clone();
        let send_displs = &xg.send_displs;
        let total_send = xg.total_send;
        if self.send.len() < total_send {
            self.send.resize(total_send, Complex64::ZERO);
        }
        if self.send.capacity() > self.send_cap {
            // Never retain more staging than the largest tile needs.
            self.send.truncate(self.send_cap);
            self.send.shrink_to(self.send_cap);
        }

        for zb in 0..zblocks {
            let zs = z0 + zb * pz;
            let ze = (zs + pz).min(z1);
            for xb in 0..xblocks {
                let xs = xb * px;
                let xe = (xs + px).min(nxl);

                // Row starts of the sub-tile's y lines (disjoint whichever
                // layout `zxy_idx` uses), shared by the transform paths and
                // the ABFT sums below.
                let mut row_starts: Vec<usize> = Vec::with_capacity((ze - zs) * (xe - xs));
                for z in zs..ze {
                    for xl in xs..xe {
                        row_starts.push(self.zxy_idx(z, xl, 0));
                    }
                }

                // ABFT (DESIGN.md §16): capture the batch checksum line
                // Σ(lines) before the in-place FFTy. Linearity demands
                // FFT(Σ lines) = Σ FFT(lines) within roundoff, so a compute
                // or memory fault inside the transform window breaks the
                // equality far beyond tolerance.
                let mut line = std::mem::take(&mut self.abft_line);
                abft_sum_rows(&mut line, &self.zxy, &row_starts, ny);

                // FFTy on every y line of the sub-tile.
                let t0 = Instant::now();
                if self.params.threads > 1 {
                    // Rows are only sorted for one of the layouts — sort for
                    // the splitter.
                    let mut starts = row_starts.clone();
                    starts.sort_unstable();
                    execute_lines_threaded(
                        &self.plan_y,
                        &mut self.zxy,
                        &starts,
                        self.params.threads,
                    );
                } else {
                    for &s in &row_starts {
                        self.plan_y
                            .execute(&mut self.zxy[s..s + ny], &mut self.plan_scratch);
                    }
                }
                let t1 = Instant::now();
                self.steps.ffty += (t1 - t0).as_secs_f64();
                self.record_span(
                    t0,
                    t1,
                    EventKind::Ffty {
                        tile,
                        subtile: zb * xblocks + xb,
                    },
                );

                // Transform the checksum line and compare with the batch sum
                // of the transformed lines.
                self.plan_y.execute(&mut line, &mut self.plan_scratch);
                let mut post = std::mem::take(&mut self.abft_post);
                abft_sum_rows(&mut post, &self.zxy, &row_starts, ny);
                let agrees = abft_agrees(&line, &post, row_starts.len());
                self.abft_line = line;
                self.abft_post = post;
                if !agrees {
                    let now = Instant::now();
                    self.record_span(now, now, EventKind::Corrupt { tile });
                    return Err(Error::IntegrityFailed {
                        tile,
                        stage: IntegrityStage::Ffty,
                    });
                }

                let due = sched_y.after_unit();
                self.poll_inflight(inflight, due)?;

                // Pack the sub-tile into per-destination blocks, each laid
                // out (z_local, x_local, y_local).
                let t0 = Instant::now();
                if self.params.threads > 1 {
                    // Parallel over destination ranks: each worker owns whole
                    // per-destination send blocks (disjoint `&mut`) and reads
                    // the shared transposed slab.
                    let mut bounds = send_displs.to_vec();
                    bounds.push(total_send);
                    let zxy = &self.zxy;
                    let decomp = &self.decomp;
                    let style = self.transpose_style;
                    let (snz, sny, snxl) = (self.spec.nz, ny, nxl);
                    let zxy_row = move |z: usize, xl: usize| match style {
                        TransposeStyle::Fast => (xl * snz + z) * sny,
                        _ => (z * snxl + xl) * sny,
                    };
                    for_each_part_threaded(
                        &mut self.send[..total_send],
                        &bounds,
                        self.params.threads,
                        |q, part| {
                            let nyl_q = decomp.y.count(q);
                            let yoff = decomp.y.offset(q);
                            for z in zs..ze {
                                let zl = z - z0;
                                for xl in xs..xe {
                                    let src = zxy_row(z, xl) + yoff;
                                    let dst = (zl * nxl + xl) * nyl_q;
                                    part[dst..dst + nyl_q].copy_from_slice(&zxy[src..src + nyl_q]);
                                }
                            }
                        },
                    );
                } else {
                    for z in zs..ze {
                        let zl = z - z0;
                        for xl in xs..xe {
                            let row = self.zxy_idx(z, xl, 0);
                            let in_block_row = zl * nxl + xl;
                            for (q, &q_displ) in send_displs.iter().enumerate() {
                                let nyl_q = self.decomp.y.count(q);
                                let yoff = self.decomp.y.offset(q);
                                let dst = q_displ + in_block_row * nyl_q;
                                let src = row + yoff;
                                // Contiguous y-run copy.
                                self.send[dst..dst + nyl_q]
                                    .copy_from_slice(&self.zxy[src..src + nyl_q]);
                            }
                        }
                    }
                }
                let t1 = Instant::now();
                self.steps.pack += (t1 - t0).as_secs_f64();
                self.record_span(
                    t0,
                    t1,
                    EventKind::Pack {
                        tile,
                        subtile: zb * xblocks + xb,
                    },
                );
                let due = sched_p.after_unit();
                self.poll_inflight(inflight, due)?;
            }
        }
        // Seal the staged payload: post time re-verifies this hash, so any
        // memory corruption on the pack→post boundary is caught before the
        // bytes reach a peer.
        self.send_hash = checksum(&self.send[..total_send]);
        Ok(())
    }

    fn post_a2a(&mut self, tile: usize) -> Self::Req {
        // Fault-plan crash injection: a rank seeded to die "at tile `k`"
        // dies here, on the boundary between pack and exchange — its peers
        // may already hold this tile's pre-crash sends (and must still be
        // able to complete tiles that need nothing more from us).
        self.comm.crash_point(tile);
        let xg = self.geom.tiles[tile].clone();
        // Fault-plan memory-SDC injection: flip one seeded bit of the
        // packed staging buffer on the same pack→post boundary.
        if let Some(site) = self.comm.bitflip_point(tile) {
            flip_seeded_bit(&mut self.send[..xg.total_send], site);
        }
        // Resident hash check: the staged payload must still be the bytes
        // the pack sealed, or the exchange is withheld — the poisoned
        // request surfaces at wait time and the driver re-packs from the
        // pristine transformed slab (no peer sequenced anything).
        if checksum(&self.send[..xg.total_send]) != self.send_hash {
            let now = Instant::now();
            self.record_span(now, now, EventKind::Corrupt { tile });
            return RealReq::Poisoned(IntegrityStage::Pack);
        }
        self.post_exchange(tile, &xg)
    }

    fn wait(&mut self, tile: usize, req: Self::Req) -> Result<(), (Self::Req, Error)> {
        if let RealReq::Poisoned(stage) = req {
            // Nothing was posted: surface the integrity failure so the
            // driver can heal (Pack stage retransmits) or abort.
            return Err((
                RealReq::Poisoned(stage),
                Error::IntegrityFailed { tile, stage },
            ));
        }
        let t0 = Instant::now();
        // Without a watchdog the wait blocks until complete (panicking on
        // an unrecoverable collective fault); with one, a stall leaves the
        // execution alive inside the plan and hands the tile back to the
        // driver, which may retry it after a degradation step or cancel it.
        let outcome = self
            .plans
            .wait(tile, self.stall_timeout)
            .map_err(|e| (req, e));
        let t1 = Instant::now();
        self.steps.wait += (t1 - t0).as_secs_f64();
        self.record_span(t0, t1, EventKind::Wait { tile });
        match outcome {
            Ok(recv) => {
                self.pending_recv = Some(recv);
                Ok(())
            }
            Err((req, e)) => {
                let err = coll_to_error(tile, e);
                if matches!(err, Error::IntegrityFailed { .. }) {
                    // Wire corruption past the link-layer retransmit budget:
                    // mark the detection in the timeline.
                    let now = Instant::now();
                    self.record_span(now, now, EventKind::Corrupt { tile });
                }
                Err((req, err))
            }
        }
    }

    fn unpack_fftx(
        &mut self,
        tile: usize,
        inflight: &mut [(usize, Self::Req)],
    ) -> Result<(), Error> {
        let recv = self
            .pending_recv
            .take()
            .ok_or(Error::Internal("unpack without a waited tile"))?;
        let (z0, z1) = self.tile_range(tile);
        let tz = z1 - z0;
        let nx = self.spec.nx;
        let nyl = self.nyl;
        if nyl == 0 || tz == 0 {
            self.plans.restore_recv(tile, recv);
            return Ok(());
        }
        let (uy, uz) = (self.params.uy.min(nyl), self.params.uz.min(tz));

        let xg = self.geom.tiles[tile].clone();
        let recv_displs = &xg.recv_displs;

        // Sub-tile grid (Figure 4, right): Nx × Uy × Uz blocks.
        let yblocks = nyl.div_ceil(uy);
        let zblocks = tz.div_ceil(uz);
        let subtiles = yblocks * zblocks;
        let mut sched_u = PollSchedule::new(subtiles, self.params.fu);
        let mut sched_x = PollSchedule::new(subtiles, self.params.fx);

        for zb in 0..zblocks {
            let zs = z0 + zb * uz;
            let ze = (zs + uz).min(z1);
            for yb in 0..yblocks {
                let ys = yb * uy;
                let ye = (ys + uy).min(nyl);

                // Output rows of this sub-tile, sorted by offset — shared by
                // the parallel Unpack and FFTx paths below. Rows are disjoint
                // length-nx slices whichever `out_idx` layout is active.
                let rows: Vec<(usize, (usize, usize))> = if self.params.threads > 1 {
                    let mut rows: Vec<(usize, (usize, usize))> = (zs..ze)
                        .flat_map(|z| (ys..ye).map(move |yl| (z, yl)))
                        .map(|(z, yl)| (self.out_idx(z, yl, 0), (z, yl)))
                        .collect();
                    rows.sort_unstable_by_key(|r| r.0);
                    rows
                } else {
                    Vec::new()
                };

                // Unpack: source block from rank s is (z_local, x_in_s,
                // y_local); destination rows are x-contiguous.
                let t0 = Instant::now();
                if self.params.threads > 1 {
                    let decomp = &self.decomp;
                    let recv_ref = &recv;
                    let displs = &recv_displs;
                    for_each_row_threaded(
                        &mut self.out,
                        nx,
                        &rows,
                        self.params.threads,
                        |row, &(z, yl)| {
                            let zl = z - z0;
                            for (s, &s_displ) in displs.iter().enumerate() {
                                let nxl_s = decomp.x.count(s);
                                let xoff = decomp.x.offset(s);
                                let base = s_displ + (zl * nxl_s) * nyl + yl;
                                for xl in 0..nxl_s {
                                    row[xoff + xl] = recv_ref[base + xl * nyl];
                                }
                            }
                        },
                    );
                } else {
                    for z in zs..ze {
                        let zl = z - z0;
                        for yl in ys..ye {
                            let out_row = self.out_idx(z, yl, 0);
                            for (s, &s_displ) in recv_displs.iter().enumerate() {
                                let nxl_s = self.decomp.x.count(s);
                                let xoff = self.decomp.x.offset(s);
                                let base = s_displ + (zl * nxl_s) * nyl + yl;
                                for xl in 0..nxl_s {
                                    self.out[out_row + xoff + xl] = recv[base + xl * nyl];
                                }
                            }
                        }
                    }
                }
                let t1 = Instant::now();
                self.steps.unpack += (t1 - t0).as_secs_f64();
                self.record_span(
                    t0,
                    t1,
                    EventKind::Unpack {
                        tile,
                        subtile: zb * yblocks + yb,
                    },
                );
                let due = sched_u.after_unit();
                self.poll_inflight(inflight, due)?;

                // ABFT checksum line through FFTx — same linearity identity
                // as the FFTy check in `ffty_pack`.
                let mut fx_rows: Vec<usize> = Vec::with_capacity((ze - zs) * (ye - ys));
                for z in zs..ze {
                    for yl in ys..ye {
                        fx_rows.push(self.out_idx(z, yl, 0));
                    }
                }
                let mut line = std::mem::take(&mut self.abft_line);
                abft_sum_rows(&mut line, &self.out, &fx_rows, nx);

                // FFTx on the unpacked x lines.
                let t0 = Instant::now();
                if self.params.threads > 1 {
                    let starts: Vec<usize> = rows.iter().map(|r| r.0).collect();
                    execute_lines_threaded(
                        &self.plan_x,
                        &mut self.out,
                        &starts,
                        self.params.threads,
                    );
                } else {
                    for &s in &fx_rows {
                        self.plan_x
                            .execute(&mut self.out[s..s + nx], &mut self.plan_scratch);
                    }
                }
                let t1 = Instant::now();
                self.steps.fftx += (t1 - t0).as_secs_f64();
                self.record_span(
                    t0,
                    t1,
                    EventKind::Fftx {
                        tile,
                        subtile: zb * yblocks + yb,
                    },
                );

                self.plan_x.execute(&mut line, &mut self.plan_scratch);
                let mut post = std::mem::take(&mut self.abft_post);
                abft_sum_rows(&mut post, &self.out, &fx_rows, nx);
                let agrees = abft_agrees(&line, &post, fx_rows.len());
                self.abft_line = line;
                self.abft_post = post;
                if !agrees {
                    let now = Instant::now();
                    self.record_span(now, now, EventKind::Corrupt { tile });
                    return Err(Error::IntegrityFailed {
                        tile,
                        stage: IntegrityStage::Fftx,
                    });
                }

                let due = sched_x.after_unit();
                self.poll_inflight(inflight, due)?;
            }
        }
        self.plans.restore_recv(tile, recv);
        Ok(())
    }

    fn escalate_watchdog(&mut self) {
        // Doubling per strike keeps a dead peer's detection time
        // geometrically bounded while giving a straggler-induced stall
        // enough grace to drain (the strike budget alone is too tight once
        // the mailbox parks back off from microseconds instead of a fixed
        // 50 ms slice).
        if let Some(t) = self.stall_timeout.as_mut() {
            *t = t.saturating_mul(2).min(Duration::from_secs(5));
        }
    }

    fn boost_polls(&mut self) {
        if self.boosted {
            return;
        }
        self.boosted = true;
        let b = self.poll_boost.max(1);
        self.params.fy = self.params.fy.saturating_mul(b);
        self.params.fp = self.params.fp.saturating_mul(b);
        self.params.fu = self.params.fu.saturating_mul(b);
        self.params.fx = self.params.fx.saturating_mul(b);
    }

    fn on_degrade(&mut self, tile: usize, action: DegradeAction) {
        let now = Instant::now();
        self.record_span(now, now, EventKind::Degrade { tile, action });
    }

    fn cancel(&mut self, _tile: usize, req: Self::Req) {
        // Reclaim whatever the abandoned exchange staged in this rank's
        // mailbox so nothing leaks past the error path: free the whole plan
        // — its in-flight execution is purged with it; a later post
        // re-inits the tile lazily. A poisoned request never staged
        // anything.
        if let RealReq::Persistent(tile) = req {
            self.plans.cancel(tile);
        }
    }

    fn retransmit(&mut self, tile: usize) -> Option<Self::Req> {
        // Heal a Pack-stage integrity failure: re-pack the tile from the
        // pristine transformed slab (FFTy was in place; the corruption hit
        // only the staging copy), re-seal the hash, and re-post. Sequential
        // copies — healing is off the hot path. The injection points are
        // deliberately not revisited, so a planned fault fires once.
        let (z0, z1) = self.tile_range(tile);
        let nxl = self.nxl;
        let xg = self.geom.tiles[tile].clone();
        if nxl > 0 && z1 > z0 {
            if self.send.len() < xg.total_send {
                self.send.resize(xg.total_send, Complex64::ZERO);
            }
            for z in z0..z1 {
                let zl = z - z0;
                for xl in 0..nxl {
                    let row = self.zxy_idx(z, xl, 0);
                    let in_block_row = zl * nxl + xl;
                    for (q, &q_displ) in xg.send_displs.iter().enumerate() {
                        let nyl_q = self.decomp.y.count(q);
                        let yoff = self.decomp.y.offset(q);
                        let dst = q_displ + in_block_row * nyl_q;
                        let src = row + yoff;
                        self.send[dst..dst + nyl_q].copy_from_slice(&self.zxy[src..src + nyl_q]);
                    }
                }
            }
        }
        self.send_hash = checksum(&self.send[..xg.total_send]);
        Some(self.post_exchange(tile, &xg))
    }

    fn post_poisoned(&self, req: &Self::Req) -> Option<IntegrityStage> {
        match req {
            RealReq::Poisoned(stage) => Some(*stage),
            _ => None,
        }
    }

    fn sched_point(&mut self) {
        // Give mpisim's virtual scheduler (checked runs) a deterministic
        // release point once per tile; free outside checked runs.
        self.comm.progress_hint();
    }

    fn threads(&self) -> usize {
        self.params.threads
    }
}

/// Executes one distributed 3-D FFT on this rank.
///
/// `input` is this rank's x-slab in `x-y-z` layout (`count_x(rank)·ny·nz`
/// elements). Returns this rank's y-slab of the result plus statistics.
/// Collective: every rank of `comm` must call this with consistent
/// arguments.
///
/// # Panics
/// On infeasible parameters or an unrecoverable pipeline fault; use
/// [`try_fft3_dist`] for the typed error path.
pub fn fft3_dist(
    comm: &Comm,
    spec: ProblemSpec,
    variant: Variant,
    params: TuningParams,
    dir: Direction,
    rigor: Rigor,
    input: &[Complex64],
) -> RunOutput {
    try_fft3_dist(comm, spec, variant, params, dir, rigor, input)
        // Display keeps the legacy "infeasible parameters: …" wording that
        // callers of the panicking API match on.
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`fft3_dist`]: infeasible parameters come back as
/// [`Error::InfeasibleParams`] instead of a panic, and with a watchdog
/// armed (see [`Resilience::stall_timeout`]) a wedged exchange surfaces as
/// [`Error::Stalled`] instead of spinning forever. Runs with the default
/// [`Resilience`] (watchdog disabled).
pub fn try_fft3_dist(
    comm: &Comm,
    spec: ProblemSpec,
    variant: Variant,
    params: TuningParams,
    dir: Direction,
    rigor: Rigor,
    input: &[Complex64],
) -> Result<RunOutput, Error> {
    try_fft3_dist_traced(
        comm,
        spec,
        variant,
        params,
        dir,
        rigor,
        input,
        &Resilience::default(),
        &mut NoopRecorder,
    )
}

/// The full-control entry point: tracing plus an explicit [`Resilience`]
/// policy. With `stall_timeout` set, stalled exchanges trip the watchdog
/// and the pipeline climbs the degradation ladder (boost polls → shrink
/// window → blocking fallback) before giving up; what it did is reported
/// in [`RunOutput::recovery`]. On the error path every in-flight exchange
/// is cancelled before returning — no staged messages leak.
///
/// A one-shot call is an [`FftSession`] executed once: every tile's
/// exchange runs on a persistent plan that is set up on the tile's first
/// post and freed on return, so the call reports one exchange setup per
/// tile. Receive staging is one buffer per tile — one y-slab in all.
#[allow(clippy::too_many_arguments)]
pub fn try_fft3_dist_traced(
    comm: &Comm,
    spec: ProblemSpec,
    variant: Variant,
    params: TuningParams,
    dir: Direction,
    rigor: Rigor,
    input: &[Complex64],
    resilience: &Resilience,
    recorder: &mut dyn Recorder,
) -> Result<RunOutput, Error> {
    FftSession::new(comm, spec, variant, params, dir, rigor)
        .execute_traced(input, resilience, recorder)
}

/// Setup-once / execute-many handle for a repeated distributed transform —
/// the user-facing face of the persistent all-to-all plans, and the only
/// implementation of the real slab backend (the one-shot entry points
/// execute a session once).
///
/// A session pins `(comm, spec, variant, params, dir, rigor)` and owns one
/// persistent all-to-all plan per communication tile. The first
/// [`FftSession::execute`] initialises each tile's plan as it is first
/// posted (and plans the FFT kernels, unless already cached); every
/// execution after that does **zero planning and zero exchange setup** —
/// [`RunOutput::planning`] is [`Duration::ZERO`] and
/// [`RunOutput::exchange_setups`] is `0`. Dropping the session frees every
/// plan (so no MC006 lint fires); [`FftSession::free`] does the same
/// explicitly.
pub struct FftSession<'a> {
    comm: &'a Comm,
    spec: ProblemSpec,
    variant: Variant,
    params: TuningParams,
    dir: Direction,
    rigor: Rigor,
    plans: TilePlans<&'a Comm>,
    executions: u64,
    checkpoint_interval: Option<u64>,
    checkpoint: Option<crate::recover::Checkpoint>,
}

impl<'a> FftSession<'a> {
    /// Creates a session. No setup happens here — plans are initialised
    /// lazily during the first execution, so the first/steady-state split is
    /// observable per execution via [`RunOutput::exchange_setups`].
    pub fn new(
        comm: &'a Comm,
        spec: ProblemSpec,
        variant: Variant,
        params: TuningParams,
        dir: Direction,
        rigor: Rigor,
    ) -> Self {
        FftSession {
            comm,
            spec,
            variant,
            params,
            dir,
            rigor,
            plans: TilePlans::new(comm, 0),
            executions: 0,
            checkpoint_interval: None,
            checkpoint: None,
        }
    }

    /// Enables periodic XOR-parity checkpoints: every `k`-th execution
    /// (the 1st, the `k+1`-th, …) collectively captures a
    /// [`crate::recover::Checkpoint`] of that execution's input before
    /// transforming, tagged with the execution number as its generation.
    /// `k = 0` disables. The latest capture is at
    /// [`FftSession::checkpoint`]; feed `Checkpoint::into_source()` to
    /// [`crate::run_recoverable`] to recompute from the last checkpointed
    /// input after a failure.
    pub fn checkpoint_every(mut self, k: u64) -> Self {
        self.checkpoint_interval = (k > 0).then_some(k);
        self
    }

    /// The most recent periodic checkpoint, when
    /// [`FftSession::checkpoint_every`] is active and at least one
    /// execution has run.
    pub fn checkpoint(&self) -> Option<&crate::recover::Checkpoint> {
        self.checkpoint.as_ref()
    }

    /// Executes the transform once over this rank's `input` x-slab,
    /// reusing the session's persistent exchange plans. Collective: every
    /// rank's session must execute in the same order.
    pub fn execute(&mut self, input: &[Complex64]) -> Result<RunOutput, Error> {
        self.execute_traced(input, &Resilience::default(), &mut NoopRecorder)
    }

    /// [`Self::execute`] with tracing and an explicit [`Resilience`]
    /// policy (see [`try_fft3_dist_traced`]).
    pub fn execute_traced(
        &mut self,
        input: &[Complex64],
        resilience: &Resilience,
        recorder: &mut dyn Recorder,
    ) -> Result<RunOutput, Error> {
        self.executions += 1;
        if let Some(k) = self.checkpoint_interval {
            if (self.executions - 1) % k == 0 {
                self.checkpoint = Some(crate::recover::Checkpoint::capture_tagged(
                    self.comm,
                    &self.spec,
                    input,
                    self.executions,
                ));
            }
        }
        let (comm, spec, variant, params, dir, rigor) = (
            self.comm,
            self.spec,
            self.variant,
            self.params,
            self.dir,
            self.rigor,
        );
        assert_eq!(comm.size(), spec.p, "communicator size must match spec.p");
        // A zero-extent axis has no transform; planning a size-1 stand-in (as
        // this path once did via `.max(1)`) would silently "succeed" on an
        // empty problem. Reject it for every variant before touching plans.
        for (axis, n) in [("nx", spec.nx), ("ny", spec.ny), ("nz", spec.nz)] {
            if n == 0 {
                return Err(Error::from(ParamError::ZeroExtent(axis)));
            }
        }
        let rank = comm.rank();
        let decomp = Decomp::new(spec.nx, spec.ny, spec.p);
        let nxl = decomp.x.count(rank);
        let nyl = decomp.y.count(rank);
        assert_eq!(
            input.len(),
            nxl * spec.ny * spec.nz,
            "input must be this rank's x-slab in x-y-z layout"
        );

        // Resolve the effective parameters and styles per variant.
        let (params, transpose_style) = match variant {
            Variant::New => {
                // The non-overlapped NEW-0 encoding sets `w = 0`, which the
                // window-range rule rejects — but every other constraint must
                // still hold (a zero `Px`/`Uy`/`T` would divide by zero below).
                if params.w == 0 {
                    params.validate_without_window(&spec)
                } else {
                    params.validate(&spec)
                }
                .map_err(Error::from)?;
                let style = if spec.square_xy() {
                    TransposeStyle::Fast
                } else {
                    TransposeStyle::Generic
                };
                (params, style)
            }
            Variant::Th => {
                // TH: tile/window honoured, but no loop tiling and no polls
                // outside FFTy/Pack; plain transpose.
                let nxl_max = decomp.x.max_count().max(1);
                let nyl_max = decomp.y.max_count().max(1);
                let p = TuningParams {
                    t: params.t,
                    w: params.w,
                    px: nxl_max,
                    pz: params.t,
                    uy: nyl_max,
                    uz: params.t,
                    fy: params.fy,
                    fp: params.fp,
                    fu: 0,
                    fx: 0,
                    threads: params.threads.max(1),
                };
                (p, TransposeStyle::Naive)
            }
            Variant::Fftw => {
                // One tile spanning the whole slab, no window, no polls.
                let p = TuningParams {
                    t: spec.nz,
                    w: 0,
                    px: decomp.x.max_count().max(1),
                    pz: spec.nz,
                    uy: decomp.y.max_count().max(1),
                    uz: spec.nz,
                    fy: 0,
                    fp: 0,
                    fu: 0,
                    fx: 0,
                    threads: params.threads.max(1),
                };
                (p, TransposeStyle::Generic)
            }
        };

        // Draw plans from the process-wide cache: any geometry this process has
        // transformed before (at this rigor) costs zero planning here, and when
        // all `p` rank threads arrive at once only one of them measures.
        let cache = PlanCache::global();
        let (plan_z, spent_z) = cache.plan_timed(spec.nz, dir, rigor);
        let (plan_y, spent_y) = cache.plan_timed(spec.ny, dir, rigor);
        let (plan_x, spent_x) = cache.plan_timed(spec.nx, dir, rigor);
        let planning = spent_z + spent_y + spent_x;
        let scratch_len = plan_z
            .scratch_len()
            .max(plan_y.scratch_len())
            .max(plan_x.scratch_len());

        let layout = if transpose_style == TransposeStyle::Fast {
            OutLayout::Yzx
        } else {
            OutLayout::Zyx
        };
        // Exchange geometry from the process-wide cache: a repeat of this
        // (shape, tile) does zero schedule setup here.
        let (geom, _cached) = TransformPlanCache::global().geometry(&spec, rank, params.t);
        // Size the plan table on first use; tiles freed by a cancel stay empty
        // and re-init lazily.
        self.plans.fit(geom.tiles.len());
        let setups_before = self.plans.setups();
        let mut env = RealEnv {
            comm,
            spec,
            params,
            geom,
            plans: &mut self.plans,
            nxl,
            nyl,
            decomp,
            transpose_style,
            layout,
            plan_z,
            plan_y,
            plan_x,
            plan_scratch: vec![Complex64::ZERO; scratch_len],
            input: input.to_vec(),
            zxy: vec![Complex64::ZERO; nxl * spec.ny * spec.nz],
            out: vec![Complex64::ZERO; spec.nz * nyl * spec.nx],
            send: Vec::new(),
            send_cap: params.t * nxl * spec.ny,
            send_hash: 0,
            abft_line: Vec::new(),
            abft_post: Vec::new(),
            pending_recv: None,
            stall_timeout: resilience.stall_timeout,
            poll_boost: resilience.poll_boost,
            boosted: false,
            steps: StepTimes::default(),
            tests: 0,
            started: Instant::now(),
            recorder,
        };

        let recovery = match variant {
            Variant::Th => try_run_th(&mut env, resilience)?,
            _ => try_run_new(&mut env, resilience)?,
        };

        let elapsed = env.started.elapsed().as_secs_f64();
        let (data, steps, tests) = (std::mem::take(&mut env.out), env.steps, env.tests);
        Ok(RunOutput {
            data,
            layout,
            stats: RunStats {
                steps,
                elapsed,
                tests,
            },
            recovery,
            planning,
            exchange_setups: self.plans.setups() - setups_before,
        })
    }

    /// Executions attempted over this session's lifetime.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Live per-tile persistent plans (tiles not yet posted, or freed by a
    /// fault path, have none).
    pub fn live_plans(&self) -> usize {
        self.plans.live()
    }

    /// Releases every persistent plan. Equivalent to dropping the session,
    /// but explicit at call sites that want the free visible.
    pub fn free(mut self) {
        self.plans.free_all();
    }
}

/// Builds this rank's x-slab of the deterministic test field.
pub fn local_test_slab(spec: &ProblemSpec, rank: usize) -> Vec<Complex64> {
    let decomp = Decomp::new(spec.nx, spec.ny, spec.p);
    let nxl = decomp.x.count(rank);
    let xoff = decomp.x.offset(rank);
    let mut v = Vec::with_capacity(nxl * spec.ny * spec.nz);
    for xl in 0..nxl {
        for y in 0..spec.ny {
            for z in 0..spec.nz {
                v.push(crate::serial::test_field(xoff + xl, y, z));
            }
        }
    }
    v
}

/// Compares a rank's distributed output slab against the serial reference
/// transform of the full test field; returns the max absolute deviation.
pub fn compare_with_serial(
    spec: &ProblemSpec,
    rank: usize,
    out: &RunOutput,
    reference: &[Complex64],
) -> f64 {
    let decomp = Decomp::new(spec.nx, spec.ny, spec.p);
    let nyl = decomp.y.count(rank);
    let yoff = decomp.y.offset(rank);
    let mut err: f64 = 0.0;
    for z in 0..spec.nz {
        for yl in 0..nyl {
            for x in 0..spec.nx {
                let got = match out.layout {
                    OutLayout::Zyx => out.data[(z * nyl + yl) * spec.nx + x],
                    OutLayout::Yzx => out.data[(yl * spec.nz + z) * spec.nx + x],
                };
                let want = reference[(x * spec.ny + (yoff + yl)) * spec.nz + z];
                err = err.max((got - want).abs());
            }
        }
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::{fft3_serial, full_test_array};

    fn check_variant(spec: ProblemSpec, variant: Variant, params: TuningParams, dir: Direction) {
        let mut reference = full_test_array(spec.nx, spec.ny, spec.nz);
        fft3_serial(&mut reference, spec.nx, spec.ny, spec.nz, dir);
        let reference = std::sync::Arc::new(reference);

        let errs = mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let out = fft3_dist(&comm, spec, variant, params, dir, Rigor::Estimate, &input);
            compare_with_serial(&spec, comm.rank(), &out, &reference)
        });
        let scale = (spec.len() as f64).max(1.0);
        for (r, e) in errs.iter().enumerate() {
            assert!(
                *e < 1e-9 * scale,
                "rank {r}: err {e} (spec {spec:?}, {variant:?})"
            );
        }
    }

    #[test]
    fn new_variant_matches_serial_cube() {
        let spec = ProblemSpec::cube(16, 4);
        let params = TuningParams::seed(&spec);
        check_variant(spec, Variant::New, params, Direction::Forward);
    }

    #[test]
    fn new_variant_matches_serial_non_square() {
        // Nx ≠ Ny forces the generic transpose path.
        let spec = ProblemSpec {
            nx: 12,
            ny: 8,
            nz: 10,
            p: 4,
        };
        let params = TuningParams {
            t: 3,
            w: 2,
            px: 2,
            pz: 2,
            uy: 2,
            uz: 3,
            fy: 2,
            fp: 1,
            fu: 1,
            fx: 2,
            threads: 1,
        };
        check_variant(spec, Variant::New, params, Direction::Forward);
    }

    #[test]
    fn new_variant_handles_non_divisible_extents() {
        // Nx mod p ≠ 0 and Ny mod p ≠ 0 (the paper's "general case").
        let spec = ProblemSpec {
            nx: 10,
            ny: 9,
            nz: 8,
            p: 4,
        };
        let params = TuningParams {
            t: 4,
            w: 2,
            px: 1,
            pz: 2,
            uy: 2,
            uz: 2,
            fy: 1,
            fp: 1,
            fu: 1,
            fx: 1,
            threads: 1,
        };
        check_variant(spec, Variant::New, params, Direction::Forward);
    }

    #[test]
    fn new_0_variant_matches_serial() {
        let spec = ProblemSpec::cube(12, 3);
        let params = TuningParams::seed(&spec).without_overlap();
        check_variant(spec, Variant::New, params, Direction::Forward);
    }

    #[test]
    fn th_variant_matches_serial() {
        let spec = ProblemSpec::cube(16, 4);
        let params = TuningParams::seed(&spec);
        check_variant(spec, Variant::Th, params, Direction::Forward);
    }

    #[test]
    fn fftw_variant_matches_serial() {
        let spec = ProblemSpec::cube(12, 4);
        let params = TuningParams::seed(&spec);
        check_variant(spec, Variant::Fftw, params, Direction::Forward);
    }

    #[test]
    fn backward_direction_matches_serial() {
        let spec = ProblemSpec::cube(8, 2);
        let params = TuningParams::seed(&spec);
        check_variant(spec, Variant::New, params, Direction::Backward);
    }

    #[test]
    fn single_rank_works() {
        let spec = ProblemSpec::cube(8, 1);
        let params = TuningParams::seed(&spec);
        check_variant(spec, Variant::New, params, Direction::Forward);
    }

    #[test]
    fn w0_with_zero_subtile_is_rejected_not_a_divide_by_zero() {
        // Regression: with `w = 0` (NEW-0) the validator used to be skipped
        // entirely, so a zero Px reached `div_ceil` and crashed with
        // "attempt to divide by zero" instead of a parameter diagnostic.
        // Now the fallible API reports it as a typed error.
        let spec = ProblemSpec::cube(8, 2);
        let mut params = TuningParams::seed(&spec).without_overlap();
        params.px = 0;
        let errs = mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            try_fft3_dist(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
                &input,
            )
            .map(|_| ())
        });
        for e in errs {
            let err = e.unwrap_err();
            assert!(matches!(err, Error::InfeasibleParams(_)), "{err}");
        }
    }

    #[test]
    fn w0_with_zero_tile_is_rejected_not_a_divide_by_zero() {
        let spec = ProblemSpec::cube(8, 2);
        let mut params = TuningParams::seed(&spec).without_overlap();
        params.t = 0;
        let errs = mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            try_fft3_dist(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
                &input,
            )
            .map(|_| ())
        });
        for e in errs {
            let err = e.unwrap_err();
            assert!(matches!(err, Error::InfeasibleParams(_)), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "infeasible parameters")]
    fn legacy_entry_point_still_panics_on_infeasible_parameters() {
        // The panicking API keeps its historical message so existing
        // callers that match on it are unaffected by the `try_` refactor.
        let spec = ProblemSpec::cube(8, 2);
        let mut params = TuningParams::seed(&spec);
        params.w = 99;
        mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            fft3_dist(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
                &input,
            );
        });
    }

    #[test]
    fn session_repeats_are_exact_with_zero_setup_after_the_first() {
        // The setup-once / execute-many contract end to end: a session's
        // first execution initialises one persistent plan per tile; every
        // later execution reuses them (zero planning, zero exchange setups)
        // and still matches the serial reference exactly.
        let spec = ProblemSpec::cube(16, 4);
        let params = TuningParams::seed(&spec);
        let dir = Direction::Forward;
        let mut reference = full_test_array(spec.nx, spec.ny, spec.nz);
        fft3_serial(&mut reference, spec.nx, spec.ny, spec.nz, dir);
        let reference = std::sync::Arc::new(reference);
        let k = params.tiles(&spec) as u64;

        let results = mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let mut session =
                FftSession::new(&comm, spec, Variant::New, params, dir, Rigor::Estimate);
            let mut per_exec = Vec::new();
            for _ in 0..3 {
                let out = session.execute(&input).expect("clean run");
                let err = compare_with_serial(&spec, comm.rank(), &out, &reference);
                per_exec.push((out.exchange_setups, out.planning, err));
            }
            assert_eq!(session.executions(), 3);
            assert_eq!(session.live_plans(), k as usize);
            session.free();
            per_exec
        });
        let scale = (spec.len() as f64).max(1.0);
        for (rank, execs) in results.iter().enumerate() {
            let (first_setups, _, _) = execs[0];
            assert_eq!(
                first_setups, k,
                "rank {rank}: first execution sets up per tile"
            );
            for (i, &(setups, planning, err)) in execs.iter().enumerate() {
                assert!(err < 1e-9 * scale, "rank {rank} exec {i}: err {err}");
                if i > 0 {
                    assert_eq!(setups, 0, "rank {rank} exec {i}: steady state");
                    assert_eq!(planning, Duration::ZERO, "rank {rank} exec {i}");
                }
            }
        }
    }

    #[test]
    fn abft_sum_and_tolerance_flag_corruption_but_not_roundoff() {
        let n = 8;
        let rows = 3;
        let data: Vec<Complex64> = (0..rows * n)
            .map(|i| crate::serial::test_field(i % 5, i % 3, i))
            .collect();
        let starts: Vec<usize> = (0..rows).map(|r| r * n).collect();
        let mut line = Vec::new();
        abft_sum_rows(&mut line, &data, &starts, n);
        let post = line.clone();
        assert!(abft_agrees(&line, &post, rows));
        // Roundoff-scale deviation (what an honest FFT accumulates) is
        // tolerated…
        let mut drift = line.clone();
        drift[2].re += 1e-14;
        assert!(abft_agrees(&line, &drift, rows));
        // …corruption-scale deviation is not.
        let mut corrupt = line.clone();
        corrupt[2].re += 1e-3;
        assert!(!abft_agrees(&line, &corrupt, rows));
    }

    /// The staging-buffer hash catches an injected memory bit-flip between
    /// pack and post, and the retransmit rung re-packs from the pristine
    /// transform state — the run completes with the correct answer and the
    /// victim reports the heal.
    #[test]
    fn memory_bitflip_is_detected_and_healed_by_retransmit() {
        let spec = ProblemSpec::cube(8, 2);
        let params = TuningParams::seed(&spec);
        let dir = Direction::Forward;
        let mut reference = full_test_array(spec.nx, spec.ny, spec.nz);
        fft3_serial(&mut reference, spec.nx, spec.ny, spec.nz, dir);
        let reference = std::sync::Arc::new(reference);
        let victim = 1;
        let faults = faultplan::FaultPlan::seeded(0xb17).with_memory_bitflip(victim, 0);
        let results = mpisim::run_with_faults(spec.p, faults, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let out = try_fft3_dist_traced(
                &comm,
                spec,
                Variant::New,
                params,
                dir,
                Rigor::Estimate,
                &input,
                &Resilience::default(),
                &mut NoopRecorder,
            )
            .expect("a detected pack corruption heals in place");
            let err = compare_with_serial(&spec, comm.rank(), &out, &reference);
            (err, out.recovery.corruptions_healed, out.recovery.actions)
        });
        let tol = 1e-9 * spec.len() as f64;
        for (rank, (err, healed, actions)) in results.into_iter().enumerate() {
            assert!(err < tol, "rank {rank}: err {err}");
            if rank == victim {
                assert!(healed >= 1, "victim heals its corruption");
                assert!(actions.contains(&DegradeAction::Retransmit));
            } else {
                assert_eq!(healed, 0, "rank {rank} saw no corruption");
            }
        }
    }

    #[test]
    fn session_checkpoints_on_the_configured_cadence() {
        let spec = ProblemSpec::cube(8, 2);
        let params = TuningParams::seed(&spec);
        mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let mut session = FftSession::new(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
            )
            .checkpoint_every(2);
            assert!(session.checkpoint().is_none(), "nothing captured yet");
            for exec in 1..=4u64 {
                session.execute(&input).expect("clean run");
                // Captures on executions 1 and 3: generation = execution.
                let expect_gen = if exec >= 3 { 3 } else { 1 };
                let ckpt = session.checkpoint().expect("captured");
                assert_eq!(ckpt.generation(), expect_gen, "after exec {exec}");
            }
            // The capture is usable: the source serves this rank's input
            // back while the membership is intact.
            let ckpt = session.checkpoint().expect("captured");
            assert_eq!(ckpt.memory_elements(), input.len() + ckpt.parity_elements());
            session.free();
        });
    }

    #[test]
    fn one_shot_calls_keep_paying_setup_per_tile() {
        // Contrast case for the session test above: a one-shot fft3_dist
        // is a session executed once, so every call sets up every tile.
        let spec = ProblemSpec::cube(8, 2);
        let params = TuningParams::seed(&spec);
        let k = params.tiles(&spec) as u64;
        let setups = mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let a = fft3_dist(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
                &input,
            );
            let b = fft3_dist(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
                &input,
            );
            (a.exchange_setups, b.exchange_setups)
        });
        for (a, b) in setups {
            assert_eq!(a, k);
            assert_eq!(b, k, "a one-shot call sets up its plans afresh every call");
        }
    }

    #[test]
    fn poll_schedule_distributes_evenly() {
        let mut s = PollSchedule::new(4, 8);
        let emitted: Vec<u64> = (0..4).map(|_| s.after_unit()).collect();
        assert_eq!(emitted, vec![2, 2, 2, 2]);
        let mut s = PollSchedule::new(3, 2);
        let emitted: Vec<u64> = (0..3).map(|_| s.after_unit()).collect();
        assert_eq!(emitted.iter().sum::<u64>(), 2);
    }
}
