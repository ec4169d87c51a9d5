//! Deterministic multicore execution simulator.
//!
//! The paper's evaluation ran on a multicore Xeon with up to 20 hardware
//! threads; this reproduction must also run on machines with a single core
//! (the container this repository was developed in has exactly one). The
//! simulator makes the paper's *scalability* experiments reproducible
//! anywhere: operators execute their tasks sequentially on the host while
//! the simulator computes what the same task graph would cost on `P` cores
//! of a modelled machine.
//!
//! The model is Cilkview-style work/span analysis extended with two
//! contention terms the paper reasons about explicitly:
//!
//! * a **shared memory-bandwidth roofline** — a parallel region can finish
//!   no faster than its total memory traffic divided by the machine's
//!   aggregate bandwidth (this is what caps the `unordered_map` transform
//!   phase in Figure 4), and
//! * a **storage device** with finite throughput and per-operation latency,
//!   on which reads may overlap compute but a single ARFF writer
//!   serializes (Figures 2 and 3).
//!
//! Parallel regions are scheduled greedily (list scheduling onto the `P`
//! least-loaded cores, in task submission order). Greedy scheduling is a
//! 2-approximation of optimal and a faithful stand-in for randomized work
//! stealing at this granularity; Brent's bound `T_P <= T_1/P + T_inf`
//! holds by construction and is asserted in tests.

use crate::cost::{CostMode, TaskCost};
use std::collections::BinaryHeap;
use std::time::Duration;

/// Parameters of the simulated machine.
///
/// Defaults approximate the paper's testbed class: a two-socket Xeon with a
/// local hard disk (the paper dumps intermediates "to a local hard disk").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineModel {
    /// Multiplier applied to *declared* (analytic) CPU costs. The
    /// workload cost models in this workspace estimate tight modern
    /// implementations; the paper's 2016 C++ testbed executes the same
    /// logical operations ~4x slower (iostream tokenization, node-based
    /// containers, 2.x GHz cores), and the published figures' serial/
    /// parallel balance depends on that. Measured-mode costs are never
    /// scaled. Set to 1.0 to model a modern machine instead.
    pub analytic_cpu_scale: f64,
    /// Scheduling overhead charged per spawned task, nanoseconds.
    pub spawn_overhead_ns: u64,
    /// Aggregate memory bandwidth shared by all cores, bytes/second.
    pub mem_bandwidth: f64,
    /// Memory bandwidth achievable by a single core, bytes/second.
    pub core_mem_bandwidth: f64,
    /// Storage sequential read throughput, bytes/second.
    pub io_read_bandwidth: f64,
    /// Storage sequential write throughput, bytes/second.
    pub io_write_bandwidth: f64,
    /// Latency charged per storage operation, nanoseconds.
    pub io_latency_ns: u64,
}

impl Default for MachineModel {
    fn default() -> Self {
        MachineModel {
            analytic_cpu_scale: 4.0,
            spawn_overhead_ns: 1_500,
            mem_bandwidth: 25.0e9,
            core_mem_bandwidth: 6.0e9,
            io_read_bandwidth: 140.0e6,
            io_write_bandwidth: 110.0e6,
            io_latency_ns: 60_000,
        }
    }
}

impl MachineModel {
    /// A model with effectively unlimited bandwidth and free I/O — isolates
    /// pure Amdahl/spawn-overhead effects in tests.
    pub fn frictionless() -> Self {
        MachineModel {
            analytic_cpu_scale: 1.0,
            spawn_overhead_ns: 0,
            mem_bandwidth: f64::INFINITY,
            core_mem_bandwidth: f64::INFINITY,
            io_read_bandwidth: f64::INFINITY,
            io_write_bandwidth: f64::INFINITY,
            io_latency_ns: 0,
        }
    }

    /// The machine cost-model *predictions* are priced on: the paper-era
    /// testbed of [`MachineModel::default`] minus its CPU derating. The
    /// workload cost models estimate tight modern implementations and
    /// `analytic_cpu_scale` exists only to slow them down to the 2016
    /// C++ testbed the simulator reproduces; predictions are instead
    /// joined against trace spans *measured on this host* (the run
    /// ledger, `hpa_trace::RunLedger`), so the derating must not apply.
    pub fn host() -> Self {
        MachineModel {
            analytic_cpu_scale: 1.0,
            ..MachineModel::default()
        }
    }

    /// Duration of a *serial* section with the given cost on this machine:
    /// CPU and single-core memory traffic overlap (roofline), storage I/O
    /// adds transfer time plus per-op latency.
    pub fn serial_ns(&self, cost: &TaskCost, measured_cpu_ns: u64, mode: CostMode) -> u64 {
        let cpu = self.effective_cpu_ns(cost, measured_cpu_ns, mode);
        let mem = bytes_ns(cost.mem_bytes, self.core_mem_bandwidth);
        let io = bytes_ns(cost.io_read_bytes, self.io_read_bandwidth)
            + bytes_ns(cost.io_write_bytes, self.io_write_bandwidth)
            + cost.io_ops * self.io_latency_ns;
        cpu.max(mem) + io
    }
}

fn bytes_ns(bytes: u64, bandwidth: f64) -> u64 {
    if bytes == 0 || bandwidth.is_infinite() {
        0
    } else {
        (bytes as f64 / bandwidth * 1e9) as u64
    }
}

impl MachineModel {
    /// Resolve a task's CPU time: measured, or declared (scaled by
    /// [`MachineModel::analytic_cpu_scale`]) in analytic mode. Analytic
    /// tasks that declared no CPU cost fall back to measurement so
    /// partially-annotated programs still simulate sensibly.
    pub fn effective_cpu_ns(&self, cost: &TaskCost, measured_cpu_ns: u64, mode: CostMode) -> u64 {
        match mode {
            CostMode::Measured => measured_cpu_ns,
            CostMode::Analytic => {
                if cost.cpu_ns > 0 {
                    (cost.cpu_ns as f64 * self.analytic_cpu_scale) as u64
                } else {
                    measured_cpu_ns
                }
            }
        }
    }
}

/// Outcome of scheduling one parallel region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionSchedule {
    /// Virtual wall time of the region (what the clock advances by).
    pub elapsed_ns: u64,
    /// Total work: sum of per-task times (including spawn overhead).
    pub work_ns: u64,
    /// Critical path: the longest single task (flat regions have no deeper
    /// dependence structure).
    pub span_ns: u64,
}

/// Accumulated state of a simulation: the virtual clock plus work/span
/// tallies for parallelism reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimState {
    /// Virtual nanoseconds elapsed since the simulation began.
    pub clock_ns: u128,
    /// Total work executed (serial + parallel), virtual nanoseconds.
    pub work_ns: u128,
    /// Critical-path length, virtual nanoseconds.
    pub span_ns: u128,
    /// Number of tasks scheduled in parallel regions.
    pub tasks: u64,
}

impl SimState {
    /// The program's inherent parallelism, `work / span`. This is the
    /// Cilkview "parallelism" figure: the speedup ceiling regardless of
    /// core count.
    pub fn parallelism(&self) -> f64 {
        if self.span_ns == 0 {
            1.0
        } else {
            self.work_ns as f64 / self.span_ns as f64
        }
    }

    /// Advance by a serial section.
    pub fn advance_serial(&mut self, ns: u64) {
        self.clock_ns += ns as u128;
        self.work_ns += ns as u128;
        self.span_ns += ns as u128;
    }

    /// Advance by a scheduled parallel region.
    pub fn advance_region(&mut self, sched: RegionSchedule, tasks: u64) {
        self.clock_ns += sched.elapsed_ns as u128;
        self.work_ns += sched.work_ns as u128;
        self.span_ns += sched.span_ns as u128;
        self.tasks += tasks;
    }

    /// Advance by a parallel region overlapped with a concurrent serial
    /// drain of its products (`Exec::par_chunks_overlapped`): the clock
    /// moves by whichever side is the bottleneck, the work tally by
    /// both, and the drain — a single ordered stream — extends the
    /// critical path when it outlasts the region's longest task.
    pub fn advance_overlapped(&mut self, sched: RegionSchedule, tasks: u64, drain_ns: u64) {
        self.clock_ns += sched.elapsed_ns.max(drain_ns) as u128;
        self.work_ns += sched.work_ns as u128 + drain_ns as u128;
        self.span_ns += sched.span_ns.max(drain_ns) as u128;
        self.tasks += tasks + u64::from(drain_ns > 0);
    }
}

/// Schedule a flat parallel region of tasks onto `cores` cores of `machine`.
///
/// Each task is `(cpu_ns, cost)`: its single-core CPU time (already
/// resolved from measured/analytic per [`MachineModel::effective_cpu_ns`]) and its
/// declared resource demand. A task runs no faster than its own memory
/// traffic over one core's bandwidth; the whole region runs no faster
/// than its aggregate traffic over the shared bus nor its storage demand
/// over the device (`totals` carries the aggregates).
pub fn schedule_region(
    machine: &MachineModel,
    cores: usize,
    tasks: &[(u64, TaskCost)],
    totals: &TaskCost,
) -> RegionSchedule {
    assert!(cores > 0, "cannot schedule on zero cores");
    if tasks.is_empty() {
        return RegionSchedule {
            elapsed_ns: 0,
            work_ns: 0,
            span_ns: 0,
        };
    }

    // Greedy list scheduling in submission order: next task goes to the
    // earliest-finishing core. BinaryHeap is a max-heap, so store negated
    // completion times.
    let mut heap: BinaryHeap<std::cmp::Reverse<u64>> = BinaryHeap::with_capacity(cores);
    for _ in 0..cores.min(tasks.len()) {
        heap.push(std::cmp::Reverse(0));
    }
    let mut makespan = 0u64;
    let mut work = 0u64;
    let mut span = 0u64;
    for &(cpu, ref cost) in tasks {
        let mem = bytes_ns(cost.mem_bytes, machine.core_mem_bandwidth);
        let t = cpu.max(mem) + machine.spawn_overhead_ns;
        work += t;
        span = span.max(t);
        let std::cmp::Reverse(free_at) = heap.pop().expect("heap has cores");
        let done = free_at + t;
        makespan = makespan.max(done);
        heap.push(std::cmp::Reverse(done));
    }

    // Roofline terms: the region cannot finish faster than its aggregate
    // memory traffic over the shared bus, nor faster than its storage
    // demand over the device. Reads overlap compute (read-ahead); the
    // region's elapsed time is the max of the contention floors.
    let mem_floor = bytes_ns(totals.mem_bytes, machine.mem_bandwidth);
    let io_floor = bytes_ns(totals.io_read_bytes, machine.io_read_bandwidth)
        + bytes_ns(totals.io_write_bytes, machine.io_write_bandwidth)
        + if totals.io_ops > 0 {
            // Device latency is paid per op but ops across cores pipeline;
            // charge the serialized fraction of one device queue.
            totals.io_ops * machine.io_latency_ns / cores as u64
        } else {
            0
        };
    let elapsed = makespan.max(mem_floor).max(io_floor);

    RegionSchedule {
        elapsed_ns: elapsed,
        work_ns: work,
        span_ns: span,
    }
}

/// Convenience: virtual duration from nanoseconds.
pub fn ns_to_duration(ns: u128) -> Duration {
    Duration::from_nanos(ns.min(u64::MAX as u128) as u64)
}

/// Invariant checker used by property tests: on a frictionless machine,
/// a greedy schedule of pure-CPU tasks must satisfy
/// `max(work/P, span) <= elapsed <= work/P + span` (Brent's theorem) and
/// report `work` exactly.
pub fn schedule_region_bounds_hold(task_times_ns: &[u64], cores: usize) -> bool {
    let machine = MachineModel::frictionless();
    let tasks: Vec<(u64, TaskCost)> = task_times_ns
        .iter()
        .map(|&t| (t, TaskCost::default()))
        .collect();
    let sched = schedule_region(&machine, cores, &tasks, &TaskCost::default());
    let work: u64 = task_times_ns.iter().sum();
    let span: u64 = task_times_ns.iter().copied().max().unwrap_or(0);
    sched.work_ns == work
        && sched.span_ns == span
        && sched.elapsed_ns >= span
        && sched.elapsed_ns >= work / cores as u64
        && sched.elapsed_ns <= work / cores as u64 + span
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frictionless() -> MachineModel {
        MachineModel::frictionless()
    }

    fn cpu_tasks(times: &[u64]) -> Vec<(u64, TaskCost)> {
        times.iter().map(|&t| (t, TaskCost::default())).collect()
    }

    #[test]
    fn empty_region_costs_nothing() {
        let s = schedule_region(&frictionless(), 4, &[], &TaskCost::default());
        assert_eq!(s.elapsed_ns, 0);
        assert_eq!(s.work_ns, 0);
    }

    #[test]
    fn single_core_elapsed_equals_work() {
        let times = [10, 20, 30, 40];
        let s = schedule_region(&frictionless(), 1, &cpu_tasks(&times), &TaskCost::default());
        assert_eq!(s.elapsed_ns, 100);
        assert_eq!(s.work_ns, 100);
        assert_eq!(s.span_ns, 40);
    }

    #[test]
    fn perfect_split_on_equal_tasks() {
        let times = [25; 8];
        let s = schedule_region(&frictionless(), 4, &cpu_tasks(&times), &TaskCost::default());
        assert_eq!(s.elapsed_ns, 50);
    }

    #[test]
    fn brent_bound_holds() {
        // T_P <= T_1/P + T_inf for greedy scheduling.
        let times: Vec<u64> = (1..=57).map(|i| (i * 7919) % 1000 + 1).collect();
        let t1: u64 = times.iter().sum();
        let tinf = *times.iter().max().unwrap();
        for cores in [1, 2, 3, 4, 8, 16] {
            let s = schedule_region(
                &frictionless(),
                cores,
                &cpu_tasks(&times),
                &TaskCost::default(),
            );
            assert!(
                s.elapsed_ns <= t1 / cores as u64 + tinf,
                "Brent violated at P={cores}: {} > {}",
                s.elapsed_ns,
                t1 / cores as u64 + tinf
            );
            assert!(s.elapsed_ns >= t1 / cores as u64, "faster than work/P");
            assert!(s.elapsed_ns >= tinf, "faster than span");
        }
    }

    #[test]
    fn more_cores_never_slower() {
        let times: Vec<u64> = (0..40).map(|i| 100 + (i * 37) % 500).collect();
        let mut prev = u64::MAX;
        for cores in [1, 2, 4, 8, 16, 32] {
            let s = schedule_region(
                &frictionless(),
                cores,
                &cpu_tasks(&times),
                &TaskCost::default(),
            );
            assert!(s.elapsed_ns <= prev, "P={cores} slower than fewer cores");
            prev = s.elapsed_ns;
        }
    }

    #[test]
    fn spawn_overhead_charged_per_task() {
        let m = MachineModel {
            spawn_overhead_ns: 10,
            ..frictionless()
        };
        let s = schedule_region(&m, 1, &cpu_tasks(&[100, 100]), &TaskCost::default());
        assert_eq!(s.elapsed_ns, 220);
        assert_eq!(s.work_ns, 220);
    }

    #[test]
    fn memory_roofline_caps_region() {
        let m = MachineModel {
            mem_bandwidth: 1e9, // 1 GB/s aggregate
            ..frictionless()
        };
        // 16 tasks x 1ms cpu on 16 cores would take 1ms, but they move
        // 10 MB total => 10ms at 1 GB/s.
        let times = [1_000_000u64; 16];
        let totals = TaskCost {
            mem_bytes: 10_000_000,
            ..Default::default()
        };
        let s = schedule_region(&m, 16, &cpu_tasks(&times), &totals);
        assert_eq!(s.elapsed_ns, 10_000_000);
    }

    #[test]
    fn io_floor_includes_latency_pipelined_across_cores() {
        let m = MachineModel {
            io_read_bandwidth: 100.0e6,
            io_latency_ns: 1000,
            ..frictionless()
        };
        let totals = TaskCost {
            io_read_bytes: 100_000_000, // 1 s at 100 MB/s
            io_ops: 4000,
            ..Default::default()
        };
        let s = schedule_region(&m, 4, &cpu_tasks(&[1; 4]), &totals);
        // 1e9 ns transfer + 4000*1000/4 ns latency
        assert_eq!(s.elapsed_ns, 1_000_000_000 + 1_000_000);
    }

    #[test]
    fn serial_ns_overlaps_cpu_and_memory_adds_io() {
        let m = MachineModel {
            core_mem_bandwidth: 1e9,
            io_write_bandwidth: 100.0e6,
            io_latency_ns: 500,
            ..frictionless()
        };
        let cost = TaskCost {
            cpu_ns: 2_000_000,
            mem_bytes: 1_000_000,      // 1 ms at 1 GB/s  (< cpu, so hidden)
            io_write_bytes: 1_000_000, // 10 ms
            io_ops: 2,
            ..Default::default()
        };
        let ns = m.serial_ns(&cost, 0, CostMode::Analytic);
        assert_eq!(ns, 2_000_000 + 10_000_000 + 1000);
    }

    #[test]
    fn analytic_mode_falls_back_to_measured_when_unannotated() {
        let m = frictionless();
        let ns = m.serial_ns(&TaskCost::default(), 12345, CostMode::Analytic);
        assert_eq!(ns, 12345);
        let ns = m.serial_ns(&TaskCost::cpu(777), 12345, CostMode::Analytic);
        assert_eq!(ns, 777);
        let ns = m.serial_ns(&TaskCost::cpu(777), 12345, CostMode::Measured);
        assert_eq!(ns, 12345);
    }

    #[test]
    fn advance_overlapped_charges_bottleneck_only() {
        let sched = RegionSchedule {
            elapsed_ns: 200,
            work_ns: 700,
            span_ns: 50,
        };
        // Drain slower than the region: it sets clock and span.
        let mut st = SimState::default();
        st.advance_overlapped(sched, 7, 500);
        assert_eq!(st.clock_ns, 500);
        assert_eq!(st.work_ns, 1200);
        assert_eq!(st.span_ns, 500);
        assert_eq!(st.tasks, 8);
        // Drain hidden behind the region: clock is the region's.
        let mut st = SimState::default();
        st.advance_overlapped(sched, 7, 100);
        assert_eq!(st.clock_ns, 200);
        assert_eq!(st.work_ns, 800);
        assert_eq!(st.span_ns, 100);
        // Zero drain contributes no phantom task.
        let mut st = SimState::default();
        st.advance_overlapped(sched, 7, 0);
        assert_eq!(st.tasks, 7);
    }

    #[test]
    fn sim_state_parallelism_is_work_over_span() {
        let mut st = SimState::default();
        st.advance_serial(100);
        st.advance_region(
            RegionSchedule {
                elapsed_ns: 250,
                work_ns: 900,
                span_ns: 100,
            },
            9,
        );
        assert_eq!(st.clock_ns, 350);
        assert_eq!(st.work_ns, 1000);
        assert_eq!(st.span_ns, 200);
        assert!((st.parallelism() - 5.0).abs() < 1e-12);
        assert_eq!(st.tasks, 9);
    }
}
