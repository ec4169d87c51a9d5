#![warn(missing_docs)]
//! Execution substrate: intra-node parallelism for analytics operators.
//!
//! The paper implements its operators in Cilkplus, whose runtime provides
//! fork/join task parallelism over a fixed set of cores. This crate is the
//! reproduction's equivalent, with one addition the paper did not need: a
//! **deterministic multicore simulator**, because the paper's scalability
//! experiments require many cores while this reproduction must run
//! anywhere (including single-core CI containers).
//!
//! Everything is accessed through [`Exec`], which has three modes:
//!
//! * [`Exec::sequential`] — run loops inline; the self-relative baseline.
//! * [`Exec::pool`] — run loops on a [`pool::WorkStealingPool`] of real
//!   threads. On a physical multicore machine this reproduces the paper's
//!   setup directly.
//! * [`Exec::simulated`] — run loops sequentially on the host while a
//!   [`sim::MachineModel`] computes *virtual* elapsed time on `P` modelled
//!   cores (work/span + greedy scheduling + memory-bandwidth and storage
//!   rooflines). [`Exec::now`] then reports virtual time, so operators and
//!   phase timers are agnostic to the mode.
//!
//! Operators annotate loops and serial sections with [`TaskCost`]s; in
//! [`CostMode::Analytic`] the simulation is fully machine-independent.

pub mod cost;
pub mod deque;
pub mod pool;
pub mod sim;
pub mod sync;

pub use cost::{CostMode, TaskCost};
pub use pool::{WorkStealingPool, WorkerStats};
pub use sim::{schedule_region_bounds_hold, MachineModel, RegionSchedule, SimState};

use crate::sync::Mutex;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The execution context every operator runs against.
#[derive(Clone)]
pub struct Exec {
    mode: Mode,
    /// Real-time epoch, used by `now()` outside simulation.
    epoch: Instant,
}

#[derive(Clone)]
enum Mode {
    Sequential,
    Pool(Arc<WorkStealingPool>),
    Sim(Arc<SimCtx>),
}

struct SimCtx {
    cores: usize,
    machine: MachineModel,
    cost_mode: CostMode,
    state: Mutex<SimState>,
}

/// Default chunk grain when the caller passes `grain = 0`.
const DEFAULT_GRAIN: usize = 64;

impl Exec {
    /// Inline sequential execution (the 1-thread baseline).
    pub fn sequential() -> Self {
        Exec {
            mode: Mode::Sequential,
            epoch: Instant::now(),
        }
    }

    /// Real threads on a work-stealing pool.
    pub fn pool(threads: usize) -> Self {
        if threads <= 1 {
            return Exec::sequential();
        }
        Exec {
            mode: Mode::Pool(Arc::new(WorkStealingPool::new(threads))),
            epoch: Instant::now(),
        }
    }

    /// Simulated execution on `cores` virtual cores of `machine`, with
    /// measured per-task CPU costs (host-dependent but realistic).
    pub fn simulated(cores: usize, machine: MachineModel) -> Self {
        Exec::simulated_with(cores, machine, CostMode::Measured)
    }

    /// Simulated execution with an explicit [`CostMode`].
    /// [`CostMode::Analytic`] makes runs reproducible across hosts,
    /// provided the workload annotates its costs.
    pub fn simulated_with(cores: usize, machine: MachineModel, cost_mode: CostMode) -> Self {
        assert!(cores >= 1, "simulated machine needs at least one core");
        Exec {
            mode: Mode::Sim(Arc::new(SimCtx {
                cores,
                machine,
                cost_mode,
                state: Mutex::new(SimState::default()),
            })),
            epoch: Instant::now(),
        }
    }

    /// The degree of parallelism this executor provides (virtual cores in
    /// simulation).
    pub fn threads(&self) -> usize {
        match &self.mode {
            Mode::Sequential => 1,
            Mode::Pool(p) => p.threads(),
            Mode::Sim(s) => s.cores,
        }
    }

    /// Elapsed time since this executor was created: *virtual* under the
    /// simulator, wall-clock otherwise. Phase timers diff this.
    pub fn now(&self) -> Duration {
        match &self.mode {
            Mode::Sim(s) => sim::ns_to_duration(s.state.lock().clock_ns),
            _ => self.epoch.elapsed(),
        }
    }

    /// Simulator work/span/clock state, if simulating.
    pub fn sim_state(&self) -> Option<SimState> {
        match &self.mode {
            Mode::Sim(s) => Some(*s.state.lock()),
            _ => None,
        }
    }

    /// Run `body` as a serial section with declared `cost`. Under the
    /// simulator the virtual clock advances by the machine-model cost of a
    /// single core executing it; otherwise this is a plain call.
    pub fn serial<R>(&self, cost: TaskCost, body: impl FnOnce() -> R) -> R {
        match &self.mode {
            Mode::Sim(s) => {
                let t0 = Instant::now();
                let r = body();
                let measured = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                let ns = s.machine.serial_ns(&cost, measured, s.cost_mode);
                s.state.lock().advance_serial(ns);
                r
            }
            _ => body(),
        }
    }

    /// Like [`Exec::serial`], but the cost is produced *by* the body —
    /// for sections whose resource demand is only known afterwards, e.g.
    /// "how many bytes did the ARFF writer emit".
    pub fn serial_costed<R>(&self, body: impl FnOnce() -> (R, TaskCost)) -> R {
        match &self.mode {
            Mode::Sim(s) => {
                let t0 = Instant::now();
                let (r, cost) = body();
                let measured = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                let ns = s.machine.serial_ns(&cost, measured, s.cost_mode);
                s.state.lock().advance_serial(ns);
                r
            }
            _ => body().0,
        }
    }

    /// Parallel loop over chunk ranges of `0..n`: `body(range)` is invoked
    /// once per chunk. The workhorse primitive the other loops reduce to.
    pub fn par_chunks<B, C>(&self, n: usize, grain: usize, body: B, cost: C)
    where
        B: Fn(Range<usize>) + Sync,
        C: Fn(Range<usize>) -> TaskCost + Sync,
    {
        if n == 0 {
            return;
        }
        let ranges = chunk_ranges(n, self.effective_grain(n, grain));
        match &self.mode {
            Mode::Sequential => {
                for r in ranges {
                    body(r);
                }
            }
            Mode::Pool(pool) => {
                let body = &body;
                let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = ranges
                    .into_iter()
                    .map(|r| Box::new(move || body(r)) as Box<dyn FnOnce() + Send + '_>)
                    .collect();
                pool.run_batch(tasks);
            }
            Mode::Sim(s) => {
                let mut times = Vec::with_capacity(ranges.len());
                let mut totals = TaskCost::default();
                for r in ranges {
                    let declared = cost(r.clone());
                    totals += declared;
                    let t0 = Instant::now();
                    body(r);
                    let measured = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                    let cpu = s.machine.effective_cpu_ns(&declared, measured, s.cost_mode);
                    times.push((cpu, declared));
                }
                let tasks = times.len() as u64;
                let sched = sim::schedule_region(&s.machine, s.cores, &times, &totals);
                s.state.lock().advance_region(sched, tasks);
            }
        }
    }

    /// Parallel loop over chunk ranges whose products are drained by a
    /// **concurrent serial consumer** — the overlapped-output shape of
    /// the pipelined ARFF writer, where chunk formatting runs in
    /// parallel while a dedicated thread writes completed buffers to
    /// disk in order.
    ///
    /// `drain` is invoked exactly once, after every chunk body has run,
    /// in every mode; it must perform whatever synchronization hands the
    /// region's products to the consumer and shuts the consumer down
    /// (drop the channel sender, join the drain thread), and it returns
    /// the consumer's total resource demand.
    ///
    /// On real executors the overlap is physical (the drain thread runs
    /// concurrently with the pool) and the returned cost is ignored.
    /// Under the simulator the region and the drain overlap on the
    /// virtual clock: time advances by `max(region elapsed, drain
    /// time)`, total work by their sum — the drain is a single ordered
    /// stream, so it contributes its full serial time to the span but
    /// hides behind the region whenever formatting is the bottleneck.
    pub fn par_chunks_overlapped<B, C, D>(&self, n: usize, grain: usize, body: B, cost: C, drain: D)
    where
        B: Fn(Range<usize>) + Sync,
        C: Fn(Range<usize>) -> TaskCost + Sync,
        D: FnOnce() -> TaskCost,
    {
        match &self.mode {
            Mode::Sim(s) => {
                let ranges = if n == 0 {
                    Vec::new()
                } else {
                    chunk_ranges(n, self.effective_grain(n, grain))
                };
                let mut times = Vec::with_capacity(ranges.len());
                let mut totals = TaskCost::default();
                for r in ranges {
                    let declared = cost(r.clone());
                    totals += declared;
                    let t0 = Instant::now();
                    body(r);
                    let measured = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                    let cpu = s.machine.effective_cpu_ns(&declared, measured, s.cost_mode);
                    times.push((cpu, declared));
                }
                let tasks = times.len() as u64;
                let sched = sim::schedule_region(&s.machine, s.cores, &times, &totals);
                let t0 = Instant::now();
                let drain_cost = drain();
                let drain_measured = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                let drain_ns = s
                    .machine
                    .serial_ns(&drain_cost, drain_measured, s.cost_mode);
                s.state.lock().advance_overlapped(sched, tasks, drain_ns);
            }
            _ => {
                self.par_chunks(n, grain, body, cost);
                let _ = drain();
            }
        }
    }

    /// Parallel map over chunk ranges of `0..n`: `body(range)` runs once
    /// per chunk — same chunks, same `cost` annotation as
    /// [`Exec::par_chunks`] — and the chunks' products come back in chunk
    /// order. One slot per *chunk*: the shape for loops whose tasks each
    /// build a block of the output (a chunk's documents, rows, runs).
    pub fn par_map_chunks<T, B, C>(&self, n: usize, grain: usize, body: B, cost: C) -> Vec<T>
    where
        T: Send,
        B: Fn(Range<usize>) -> T + Sync,
        C: Fn(Range<usize>) -> TaskCost + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let grain = self.effective_grain(n, grain);
        let slots: Vec<Mutex<Option<T>>> =
            (0..n.div_ceil(grain)).map(|_| Mutex::new(None)).collect();
        self.par_chunks(
            n,
            grain,
            |range| {
                let chunk = range.start / grain;
                *slots[chunk].lock() = Some(body(range));
            },
            cost,
        );
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("every chunk ran"))
            .collect()
    }

    /// Parallel fold/reduce over `0..n`: each chunk folds into a local
    /// accumulator created by `identity`; partial accumulators are then
    /// combined by a pairwise **tree reduction** (parallel rounds, like
    /// Cilk reducer merges). The tree's critical path — `log2(partials)`
    /// rounds of `reduce_cost` — is a serial fraction (the one the paper
    /// names for K-means on the smaller *Mix* data set in its Figure 1),
    /// so the simulator charges it faithfully.
    #[allow(clippy::too_many_arguments)]
    pub fn par_fold_reduce<T, ID, F, R2, C>(
        &self,
        n: usize,
        grain: usize,
        identity: ID,
        fold: F,
        reduce: R2,
        cost: C,
        reduce_cost: TaskCost,
    ) -> Option<T>
    where
        T: Send,
        ID: Fn() -> T + Sync,
        F: Fn(T, usize) -> T + Sync,
        R2: Fn(T, T) -> T + Sync,
        C: Fn(Range<usize>) -> TaskCost + Sync,
    {
        let partials = self.par_map_chunks(n, grain, |range| range.fold(identity(), &fold), cost);
        self.par_tree_reduce(partials, reduce, reduce_cost)
    }

    /// Pairwise tree reduction of `items`: each round merges disjoint
    /// pairs in parallel (an odd item passes through). Merge order is
    /// deterministic (left-to-right pairing), so floating-point results
    /// are reproducible across executors for a fixed number of partials.
    fn par_tree_reduce<T, M>(&self, mut items: Vec<T>, merge: M, merge_cost: TaskCost) -> Option<T>
    where
        T: Send,
        M: Fn(T, T) -> T + Sync,
    {
        while items.len() > 1 {
            let mut iter = items.into_iter();
            let mut pairs: Vec<Mutex<Option<(T, T)>>> = Vec::new();
            let mut leftover: Option<T> = None;
            loop {
                match (iter.next(), iter.next()) {
                    (Some(a), Some(b)) => pairs.push(Mutex::new(Some((a, b)))),
                    (Some(a), None) => {
                        leftover = Some(a);
                        break;
                    }
                    _ => break,
                }
            }
            let out: Vec<Mutex<Option<T>>> = pairs.iter().map(|_| Mutex::new(None)).collect();
            {
                let pairs = &pairs;
                let out = &out;
                let merge = &merge;
                self.par_chunks(
                    pairs.len(),
                    1,
                    move |range| {
                        for i in range {
                            let (a, b) = pairs[i].lock().take().expect("pair taken once");
                            *out[i].lock() = Some(merge(a, b));
                        }
                    },
                    |range| {
                        let mut total = TaskCost::default();
                        for _ in range {
                            total += merge_cost;
                        }
                        total
                    },
                );
            }
            items = out
                .into_iter()
                .map(|s| s.into_inner().expect("pair merged"))
                .collect();
            items.extend(leftover);
        }
        items.into_iter().next()
    }

    /// Predicted wall time of a serial section with declared `cost`,
    /// nanoseconds on [`MachineModel::host`]. This prices the *measured*
    /// execution the section's trace span will record (every mode runs
    /// the body on the host), so operators emit it via
    /// `hpa_trace::predict` next to the span for the conformance ledger
    /// to join. Purely analytic: unannotated costs predict 0 rather
    /// than falling back to measurement.
    pub fn predict_serial_ns(&self, cost: &TaskCost) -> u64 {
        MachineModel::host().serial_ns(cost, 0, CostMode::Analytic)
    }

    /// Predicted wall time of a parallel region over `0..n` with chunk
    /// size `grain` (0 = automatic, same resolution as the `par_*`
    /// loops), scheduled greedily onto this executor's thread count on
    /// [`MachineModel::host`]. `cost(range)` declares each chunk's
    /// demand exactly as passed to [`Exec::par_chunks`].
    pub fn predict_region_ns<C>(&self, n: usize, grain: usize, cost: C) -> u64
    where
        C: Fn(Range<usize>) -> TaskCost,
    {
        if n == 0 {
            return 0;
        }
        let machine = MachineModel::host();
        let ranges = chunk_ranges(n, self.effective_grain(n, grain));
        let mut tasks = Vec::with_capacity(ranges.len());
        let mut totals = TaskCost::default();
        for r in ranges {
            let declared = cost(r);
            totals += declared;
            let cpu = machine.effective_cpu_ns(&declared, 0, CostMode::Analytic);
            tasks.push((cpu, declared));
        }
        sim::schedule_region(&machine, self.threads(), &tasks, &totals).elapsed_ns
    }

    /// Predicted wall time of a pairwise tree reduction of `items`
    /// partials where every merge costs `merge_cost` — the shape of
    /// [`Exec::par_fold_reduce`]'s reduction: `ceil(log2(items))` rounds,
    /// each a parallel region of disjoint pair merges.
    pub fn predict_tree_reduce_ns(&self, mut items: usize, merge_cost: TaskCost) -> u64 {
        let mut total = 0u64;
        while items > 1 {
            let pairs = items / 2;
            total += self.predict_region_ns(pairs, 1, |r| {
                let mut c = TaskCost::default();
                for _ in r {
                    c += merge_cost;
                }
                c
            });
            items = pairs + items % 2;
        }
        total
    }

    /// Number of chunks the `par_*` loops split `0..n` into for `grain`
    /// (0 = automatic) — the partial count feeding a tree reduction.
    pub fn chunks_for(&self, n: usize, grain: usize) -> usize {
        if n == 0 {
            0
        } else {
            n.div_ceil(self.effective_grain(n, grain))
        }
    }

    fn effective_grain(&self, n: usize, grain: usize) -> usize {
        if grain > 0 {
            return grain;
        }
        // Aim for ~8 chunks per thread so stealing can balance load, with a
        // floor so tiny loops don't drown in spawn overhead.
        let by_threads = n.div_ceil(self.threads() * 8);
        by_threads.clamp(1, DEFAULT_GRAIN)
    }
}

impl std::fmt::Debug for Exec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.mode {
            Mode::Sequential => write!(f, "Exec::Sequential"),
            Mode::Pool(p) => write!(f, "Exec::Pool({} threads)", p.threads()),
            Mode::Sim(s) => write!(f, "Exec::Sim({} cores, {:?})", s.cores, s.cost_mode),
        }
    }
}

/// Split `0..n` into consecutive ranges of length `grain` (last may be
/// shorter).
pub fn chunk_ranges(n: usize, grain: usize) -> Vec<Range<usize>> {
    assert!(grain > 0);
    let mut out = Vec::with_capacity(n.div_ceil(grain));
    let mut start = 0;
    while start < n {
        let end = (start + grain).min(n);
        out.push(start..end);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn chunk_ranges_cover_exactly() {
        let rs = chunk_ranges(10, 3);
        assert_eq!(rs, vec![0..3, 3..6, 6..9, 9..10]);
        assert_eq!(chunk_ranges(0, 5), Vec::<Range<usize>>::new());
        assert_eq!(chunk_ranges(5, 100), vec![0..5]);
    }

    fn all_execs() -> Vec<Exec> {
        vec![
            Exec::sequential(),
            Exec::pool(3),
            Exec::simulated(4, MachineModel::frictionless()),
            Exec::simulated_with(4, MachineModel::frictionless(), CostMode::Analytic),
        ]
    }

    #[test]
    fn predict_serial_prices_declared_cpu_without_derating() {
        // host() drops the 2016-testbed CPU scale: 1µs declared = 1µs
        // predicted, in every mode (predictions price the host run).
        for exec in all_execs() {
            assert_eq!(
                exec.predict_serial_ns(&TaskCost::cpu(1_000)),
                1_000,
                "{exec:?}"
            );
            assert_eq!(exec.predict_serial_ns(&TaskCost::default()), 0, "{exec:?}");
        }
    }

    #[test]
    fn predict_region_respects_parallelism_and_spawn_overhead() {
        let spawn = MachineModel::host().spawn_overhead_ns;
        let seq = Exec::sequential();
        let par = Exec::pool(4);
        // 8 chunks x 1ms: sequential executes all on one core, the
        // 4-thread pool two rounds of four.
        let chunk = |_: Range<usize>| TaskCost::cpu(1_000_000);
        let t1 = seq.predict_region_ns(8, 1, chunk);
        let t4 = par.predict_region_ns(8, 1, chunk);
        assert_eq!(t1, 8 * (1_000_000 + spawn));
        assert_eq!(t4, 2 * (1_000_000 + spawn));
        assert_eq!(seq.predict_region_ns(0, 1, chunk), 0);
    }

    #[test]
    fn predict_tree_reduce_charges_log_rounds() {
        let spawn = MachineModel::host().spawn_overhead_ns;
        let seq = Exec::sequential();
        // 4 partials -> rounds of 2 then 1 merges, serial: 3 merges.
        let t = seq.predict_tree_reduce_ns(4, TaskCost::cpu(10_000));
        assert_eq!(t, 3 * (10_000 + spawn));
        assert_eq!(seq.predict_tree_reduce_ns(1, TaskCost::cpu(10_000)), 0);
        assert_eq!(seq.predict_tree_reduce_ns(0, TaskCost::cpu(10_000)), 0);
    }

    #[test]
    fn chunks_for_matches_chunk_ranges() {
        for exec in all_execs() {
            for (n, grain) in [(0usize, 0usize), (1, 0), (1000, 37), (1000, 0), (5, 100)] {
                let expect = if n == 0 {
                    0
                } else {
                    chunk_ranges(n, exec.effective_grain(n, grain)).len()
                };
                assert_eq!(exec.chunks_for(n, grain), expect, "n={n} grain={grain}");
            }
        }
    }

    /// Per-index loop over the chunk primitive, uncosted.
    fn par_for(exec: &Exec, n: usize, grain: usize, body: impl Fn(usize) + Sync) {
        exec.par_chunks(n, grain, |r| r.for_each(&body), |_| TaskCost::default());
    }

    #[test]
    fn par_for_visits_each_index_once_in_all_modes() {
        for exec in all_execs() {
            let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
            par_for(&exec, hits.len(), 16, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} in {exec:?}");
            }
        }
    }

    #[test]
    fn par_for_zero_length_is_noop() {
        for exec in all_execs() {
            par_for(&exec, 0, 8, |_| panic!("must not run"));
        }
    }

    #[test]
    fn par_fold_reduce_sums_correctly_in_all_modes() {
        for exec in all_execs() {
            let total = exec.par_fold_reduce(
                1000,
                37,
                || 0u64,
                |acc, i| acc + i as u64,
                |a, b| a + b,
                |_| TaskCost::default(),
                TaskCost::default(),
            );
            assert_eq!(total, Some((0..1000u64).sum()), "{exec:?}");
        }
    }

    #[test]
    fn par_fold_reduce_empty_returns_none() {
        let exec = Exec::sequential();
        let r = exec.par_fold_reduce(
            0,
            1,
            || 0u64,
            |a, _| a,
            |a, b| a + b,
            |_| TaskCost::default(),
            TaskCost::default(),
        );
        assert_eq!(r, None);
    }

    #[test]
    fn pool_of_one_degrades_to_sequential() {
        let exec = Exec::pool(1);
        assert_eq!(exec.threads(), 1);
        assert!(matches!(exec.mode, Mode::Sequential));
    }

    #[test]
    fn simulated_clock_advances_with_analytic_costs() {
        let exec = Exec::simulated_with(4, MachineModel::frictionless(), CostMode::Analytic);
        // 8 chunks x 1ms on 4 cores => 2ms.
        exec.par_chunks(8, 1, |_| {}, |_| TaskCost::cpu(1_000_000));
        let clock = exec.now();
        assert_eq!(clock, Duration::from_millis(2));
        let st = exec.sim_state().unwrap();
        assert_eq!(st.work_ns, 8_000_000);
        assert_eq!(st.span_ns, 1_000_000);
        assert!((st.parallelism() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn simulated_serial_section_advances_clock() {
        let exec = Exec::simulated_with(8, MachineModel::frictionless(), CostMode::Analytic);
        let out = exec.serial(TaskCost::cpu(5_000_000), || 42);
        assert_eq!(out, 42);
        assert_eq!(exec.now(), Duration::from_millis(5));
    }

    #[test]
    fn overlapped_region_advances_by_the_slower_side() {
        // 8 chunks x 1ms on 4 cores = 2ms region; a 3ms drain dominates.
        let exec = Exec::simulated_with(4, MachineModel::frictionless(), CostMode::Analytic);
        let drained = AtomicUsize::new(0);
        exec.par_chunks_overlapped(
            8,
            1,
            |_| {},
            |_| TaskCost::cpu(1_000_000),
            || {
                drained.fetch_add(1, Ordering::Relaxed);
                TaskCost::cpu(3_000_000)
            },
        );
        assert_eq!(
            drained.load(Ordering::Relaxed),
            1,
            "drain runs exactly once"
        );
        assert_eq!(exec.now(), Duration::from_millis(3));

        // A 1ms drain hides entirely behind the same 2ms region.
        let exec = Exec::simulated_with(4, MachineModel::frictionless(), CostMode::Analytic);
        exec.par_chunks_overlapped(
            8,
            1,
            |_| {},
            |_| TaskCost::cpu(1_000_000),
            || TaskCost::cpu(1_000_000),
        );
        assert_eq!(exec.now(), Duration::from_millis(2));
    }

    #[test]
    fn overlapped_drain_runs_in_every_mode_even_when_empty() {
        for exec in all_execs() {
            let drained = AtomicUsize::new(0);
            exec.par_chunks_overlapped(
                0,
                1,
                |_| panic!("no chunks to run"),
                |_| TaskCost::default(),
                || {
                    drained.fetch_add(1, Ordering::Relaxed);
                    TaskCost::default()
                },
            );
            assert_eq!(drained.load(Ordering::Relaxed), 1, "{exec:?}");
        }
    }

    #[test]
    fn simulated_speedup_scales_with_cores() {
        // Same analytic workload on 1 vs 8 cores: 8x faster.
        let run = |cores| {
            let exec =
                Exec::simulated_with(cores, MachineModel::frictionless(), CostMode::Analytic);
            exec.par_chunks(64, 1, |_| {}, |_| TaskCost::cpu(1_000_000));
            exec.now()
        };
        let t1 = run(1);
        let t8 = run(8);
        assert_eq!(t1.as_nanos() / t8.as_nanos(), 8);
    }

    #[test]
    fn measured_mode_clock_is_nonzero_for_real_work() {
        let exec = Exec::simulated(2, MachineModel::frictionless());
        let sink = AtomicU64::new(0);
        par_for(&exec, 100, 10, |i| {
            // A little real work so measurement sees nonzero durations.
            let mut x = i as u64;
            for _ in 0..1000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            sink.fetch_xor(x, Ordering::Relaxed);
        });
        assert!(exec.now() > Duration::ZERO);
    }

    #[test]
    fn reduction_charges_tree_critical_path_in_sim() {
        let exec = Exec::simulated_with(16, MachineModel::frictionless(), CostMode::Analytic);
        // 16 partials, negligible parallel fold cost, 1 ms per merge:
        // the pairwise tree has log2(16) = 4 rounds on 16 cores.
        let r = exec.par_fold_reduce(
            16,
            1,
            || 0u64,
            |a, i| a + i as u64,
            |a, b| a + b,
            |_| TaskCost::cpu(1),
            TaskCost::cpu(1_000_000),
        );
        assert_eq!(r, Some((0..16u64).sum()));
        let clock = exec.now();
        assert!(
            clock >= Duration::from_millis(4) && clock < Duration::from_millis(6),
            "tree reduction should cost ~4 rounds, got {clock:?}"
        );
    }

    #[test]
    fn tree_reduce_merges_everything_in_all_modes() {
        for exec in all_execs() {
            let items: Vec<u64> = (1..=37).collect();
            let total = exec.par_tree_reduce(items, |a, b| a + b, TaskCost::cpu(10));
            assert_eq!(total, Some((1..=37u64).sum()), "{exec:?}");
        }
        assert_eq!(
            Exec::sequential().par_tree_reduce(
                Vec::<u64>::new(),
                |a, b| a + b,
                TaskCost::default()
            ),
            None
        );
        assert_eq!(
            Exec::sequential().par_tree_reduce(vec![9u64], |a, b| a + b, TaskCost::default()),
            Some(9)
        );
    }

    #[test]
    fn now_is_monotone_in_real_modes() {
        let exec = Exec::pool(2);
        let a = exec.now();
        par_for(&exec, 10, 1, |_| {});
        let b = exec.now();
        assert!(b >= a);
    }

    #[test]
    fn effective_grain_respects_explicit_value() {
        let exec = Exec::sequential();
        assert_eq!(exec.effective_grain(1000, 7), 7);
        // Automatic grain: bounded and positive.
        let g = exec.effective_grain(1000, 0);
        assert!(g >= 1 && g <= DEFAULT_GRAIN.max(1000));
    }
}
