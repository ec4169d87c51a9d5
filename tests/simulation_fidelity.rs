//! Integration tests for the execution simulator's figure-level claims:
//! the calibrated analytic model must reproduce the *orderings* the paper
//! reports, at reduced scale, deterministically. These are the guardrails
//! that keep future changes from silently un-reproducing the paper.
//!
//! The `figure3_*` and `planner_*` tests hold the intermediate-transport
//! claims: a discrete workflow pays a file tax, pipelining plus a binary
//! format shrink it, and the planner picks the cheapest transport within
//! a bounded regret. Every number
//! they compare is virtual time, so each is a fixed fact of the cost
//! model, asserted with a margin instead of a tolerance.

use hpa::corpus::CorpusSpec;
use hpa::dict::DictKind;
use hpa::exec::{CostMode, MachineModel};
use hpa::prelude::*;
use std::sync::OnceLock;

fn exec(cores: usize) -> Exec {
    Exec::simulated_with(cores, MachineModel::default(), CostMode::Analytic)
}

fn workflow(kind: DictKind) -> hpa::workflow::WorkflowBuilder {
    WorkflowBuilder::new()
        .tfidf(TfIdfConfig {
            dict_kind: kind,
            grain: 0,
            charge_input_io: true,
            ..Default::default()
        })
        .kmeans(KMeansConfig {
            k: 8,
            max_iters: 5,
            tol: 0.0,
            seed: 1,
            ..Default::default()
        })
}

fn total_secs(out: &hpa::workflow::WorkflowOutcome) -> f64 {
    out.phases.total().as_secs_f64()
}

#[test]
fn figure1_ordering_nsf_scales_better_than_mix() {
    // Self-relative K-means speedup at 16 cores: NSF > Mix (Figure 1).
    // Pinned to the naive per-centroid kernel: Figure 1 models the paper's
    // original implementation. The blocked+pruned kernel (the default)
    // deliberately shrinks the parallel assignment work after the first
    // iteration, which lowers the achievable Amdahl speedup — its effect
    // is `pruning_computes_at_most_a_third_of_naive_distances`, not this
    // figure.
    let speedup_at_16 = |spec: CorpusSpec| {
        let corpus = spec.generate(3);
        let model =
            hpa::tfidf::TfIdf::new(TfIdfConfig::default()).fit(&Exec::sequential(), &corpus);
        let run = |cores: usize| {
            let e = exec(cores);
            let t0 = e.now();
            hpa::kmeans::KMeans::new(KMeansConfig {
                k: 8,
                max_iters: 5,
                tol: 0.0,
                seed: 1,
                kernel: AssignKernel::Naive,
                ..Default::default()
            })
            .fit(&e, &model.vectors, model.vocab.len());
            (e.now() - t0).as_secs_f64()
        };
        run(1) / run(16)
    };
    let nsf = speedup_at_16(CorpusSpec::nsf_abstracts().scaled(0.02));
    let mix = speedup_at_16(CorpusSpec::mix().scaled(0.02));
    assert!(
        nsf > mix + 0.5,
        "NSF should scale clearly better: nsf {nsf:.2} vs mix {mix:.2}"
    );
    assert!(nsf > 2.0, "NSF speedup at 16 cores: {nsf:.2}");
}

#[test]
fn figure3_ordering_discrete_overhead_grows_with_threads() {
    // Figure 3: the discrete/merged ratio grows with thread count,
    // because the ARFF legs are serial. Pinned to `DiscreteIo::Serial`:
    // Figure 3 models the paper's original implementation. The pipelined
    // round-trip (the default) deliberately parallelizes the format and
    // parse halves of those legs — its effect is the assertion below and
    // `figure3_pipelined_arff_legs_beat_serial_at_4_threads`.
    let corpus = CorpusSpec::nsf_abstracts().scaled(0.01).generate(3);
    let ratio = |cores: usize, io: DiscreteIo| {
        let d = workflow(DictKind::BTree)
            .discrete_io(io)
            .discrete()
            .run(&corpus, &exec(cores))
            .unwrap();
        let m = workflow(DictKind::BTree)
            .fused()
            .run(&corpus, &exec(cores))
            .unwrap();
        total_secs(&d) / total_secs(&m)
    };
    let r1 = ratio(1, DiscreteIo::Serial);
    let r16 = ratio(16, DiscreteIo::Serial);
    assert!(
        r1 > 1.05,
        "discrete must cost extra even at 1 thread: {r1:.3}"
    );
    assert!(
        r16 > r1 + 0.5,
        "I/O overhead must grow with threads: {r1:.2} -> {r16:.2}"
    );

    // The pipelined round-trip narrows — but does not erase — the gap:
    // the ordered drain and the header stay serial, so discrete remains
    // strictly slower than fused at every thread count.
    let p16 = ratio(16, DiscreteIo::Pipelined);
    assert!(
        p16 < r16,
        "pipelining must shrink the 16-thread overhead: {p16:.2} vs {r16:.2}"
    );
    assert!(
        p16 > 1.0,
        "discrete stays slower than fused even pipelined: {p16:.3}"
    );
}

#[test]
fn figure4_orderings_hold() {
    let corpus = CorpusSpec::mix().scaled(0.02).generate(3);
    let run =
        |kind: DictKind, cores: usize| workflow(kind).fused().run(&corpus, &exec(cores)).unwrap();

    let map1 = run(DictKind::BTree, 1);
    let umap1 = run(DictKind::PAPER_PRESIZE, 1);

    // input+wc favours map (§3.4: insertion-heavy).
    let wc_map = map1.phases.get("input+wc").unwrap();
    let wc_umap = umap1.phases.get("input+wc").unwrap();
    assert!(
        wc_map < wc_umap,
        "input+wc: map {wc_map:?} should beat u-map {wc_umap:?}"
    );

    // transform favours u-map on one thread (lookup-heavy).
    let tr_map = map1.phases.get("transform").unwrap();
    let tr_umap = umap1.phases.get("transform").unwrap();
    assert!(
        tr_umap < tr_map,
        "transform@1: u-map {tr_umap:?} should beat map {tr_map:?}"
    );

    // but map's transform scales better to 16 threads.
    let map16 = run(DictKind::BTree, 16);
    let umap16 = run(DictKind::PAPER_PRESIZE, 16);
    let scale_map = tr_map.as_secs_f64() / map16.phases.get("transform").unwrap().as_secs_f64();
    let scale_umap = tr_umap.as_secs_f64() / umap16.phases.get("transform").unwrap().as_secs_f64();
    assert!(
        scale_map > scale_umap,
        "transform scalability: map {scale_map:.2}x vs u-map {scale_umap:.2}x"
    );
}

#[test]
fn figure4_memory_ordering_holds_in_both_accountings() {
    let corpus = CorpusSpec::mix().scaled(0.01).generate(3);
    let e = Exec::sequential();
    let count = |kind| {
        hpa::tfidf::TfIdf::new(TfIdfConfig {
            dict_kind: kind,
            grain: 0,
            charge_input_io: false,
            ..Default::default()
        })
        .count_words(&e, &corpus)
    };
    let map = count(DictKind::BTree);
    let umap = count(DictKind::PAPER_PRESIZE);
    assert!(
        umap.modeled_resident_bytes() > 5 * map.modeled_resident_bytes() / 2,
        "modelled: u-map {} vs map {}",
        umap.modeled_resident_bytes(),
        map.modeled_resident_bytes()
    );
    assert!(
        umap.heap_bytes() > 3 * map.heap_bytes(),
        "actual Rust heap: u-map {} vs map {}",
        umap.heap_bytes(),
        map.heap_bytes()
    );
}

#[test]
fn weka_ordering_baseline_is_dramatically_slower() {
    let corpus = CorpusSpec::mix().scaled(0.01).generate(3);
    let e = Exec::sequential();
    let model = hpa::tfidf::TfIdf::new(TfIdfConfig::default()).fit(&e, &corpus);
    let dim = model.vocab.len();
    let cfg = KMeansConfig {
        k: 4,
        max_iters: 3,
        tol: 0.0,
        seed: 2,
        ..Default::default()
    };

    let fast = hpa::kmeans::KMeans::new(cfg).fit(&e, &model.vectors, dim);
    let slow = hpa::kmeans::baseline::SimpleKMeans::new(cfg).fit(&model.vectors, dim);
    assert_eq!(
        fast.assignments, slow.assignments,
        "same algorithm, same answer"
    );
    assert_eq!(fast.iterations, slow.iterations);

    // The gap is in the work, which can be counted: the baseline walks
    // all `dim` terms for each of its n·k distances per iteration, the
    // operator only a document's non-zeros for each distance it computes.
    // (Wall-clock numbers are `weka_comparison`'s job.)
    let docs = model.vectors.len() as u64;
    let nnz: u64 = model.vectors.iter().map(|v| v.nnz() as u64).sum();
    assert_eq!(fast.assign_stats.docs, docs * fast.iterations as u64);
    let dense_madds = fast.assign_stats.docs * cfg.k as u64 * dim as u64;
    let sparse_madds = fast.assign_stats.distances_computed * nnz.div_ceil(docs);
    assert!(
        dense_madds > 20 * sparse_madds,
        "dense baseline should do >20x the multiply-adds even at toy scale: \
         {dense_madds} vs {sparse_madds}"
    );
}

#[test]
fn analytic_simulation_is_deterministic_across_runs() {
    let corpus = CorpusSpec::mix().scaled(0.005).generate(9);
    let run = || {
        let e = exec(12);
        let out = workflow(DictKind::default())
            .fused()
            .run(&corpus, &e)
            .unwrap();
        (
            out.phases.total(),
            e.sim_state().unwrap().work_ns,
            out.assignments,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "virtual total time must be bit-identical");
    assert_eq!(a.1, b.1, "virtual work must be bit-identical");
    assert_eq!(a.2, b.2);
}

/// The corpus and K-means seed of the bench bins (their default
/// `--seed`).
const BENCH_SEED: u64 = 20160315;

fn nsf_small() -> Corpus {
    CorpusSpec::nsf_abstracts()
        .scaled(0.005)
        .generate(BENCH_SEED)
}

/// The paper's Figure 3 configuration, as `fig3_fusion` runs it.
fn figure3_builder() -> WorkflowBuilder {
    WorkflowBuilder::new()
        .tfidf(TfIdfConfig {
            dict_kind: DictKind::BTree,
            grain: 0,
            charge_input_io: true,
            ..Default::default()
        })
        .kmeans(KMeansConfig {
            k: 8,
            max_iters: 10,
            tol: 0.0,
            seed: BENCH_SEED,
            ..Default::default()
        })
}

/// Every transport forced, at 1 and 4 simulated threads, on NSF × 0.005
/// — computed once and shared by the tests below.
struct Figure3Grid {
    corpus: Corpus,
    runs: Vec<(Transport, usize, WorkflowOutcome)>,
}

const GRID_THREADS: [usize; 2] = [1, 4];

fn figure3_grid() -> &'static Figure3Grid {
    static GRID: OnceLock<Figure3Grid> = OnceLock::new();
    GRID.get_or_init(|| {
        let corpus = nsf_small();
        let mut runs = Vec::new();
        for t in Transport::ALL {
            for threads in GRID_THREADS {
                let out = figure3_builder()
                    .plan_space(PlanSpace::only([t]))
                    .planned()
                    .run(&corpus, &exec(threads))
                    .unwrap();
                assert_eq!(out.transport, t, "a forced plan reports itself");
                runs.push((t, threads, out));
            }
        }
        Figure3Grid { corpus, runs }
    })
}

impl Figure3Grid {
    fn run(&self, t: Transport, threads: usize) -> &WorkflowOutcome {
        self.runs
            .iter()
            .find(|(rt, rthreads, _)| *rt == t && *rthreads == threads)
            .map(|(_, _, out)| out)
            .expect("transport and thread count are in the grid")
    }

    /// Seconds of one phase (`tfidf-output` is the write leg,
    /// `kmeans-input` the read leg).
    fn phase_s(&self, t: Transport, threads: usize, phase: &str) -> f64 {
        self.run(t, threads)
            .phases
            .get(phase)
            .unwrap()
            .as_secs_f64()
    }
}

const ARFF_SERIAL: Transport = Transport::Materialized(IntermediateFormat::Arff);
const ARFF_PIPELINED: Transport = Transport::Pipelined(IntermediateFormat::Arff);
const BINARY_PIPELINED: Transport = Transport::Pipelined(IntermediateFormat::Binary);

#[test]
fn figure3_pipelined_arff_legs_beat_serial_at_4_threads() {
    let grid = figure3_grid();
    for phase in ["tfidf-output", "kmeans-input"] {
        let speedup = grid.phase_s(ARFF_SERIAL, 4, phase) / grid.phase_s(ARFF_PIPELINED, 4, phase);
        assert!(
            speedup >= 2.0,
            "{phase}: pipelined ARFF only {speedup:.2}x serial at 4 threads"
        );
    }
}

#[test]
fn figure3_binary_legs_beat_pipelined_arff_at_4_threads() {
    let grid = figure3_grid();
    let legs = |t| {
        (
            grid.phase_s(t, 4, "tfidf-output"),
            grid.phase_s(t, 4, "kmeans-input"),
        )
    };
    let (arff_w, arff_r) = legs(ARFF_PIPELINED);
    let (bin_w, bin_r) = legs(BINARY_PIPELINED);
    for (what, speedup) in [
        ("write", arff_w / bin_w),
        ("read", arff_r / bin_r),
        ("round trip", (arff_w + arff_r) / (bin_w + bin_r)),
    ] {
        assert!(
            speedup >= 2.0,
            "binary {what} only {speedup:.2}x pipelined ARFF at 4 threads"
        );
    }
}

#[test]
fn figure3_binary_discrete_lands_within_1_3x_of_fused() {
    let grid = figure3_grid();
    let total = |t| grid.run(t, 4).phases.total().as_secs_f64();
    let ratio = total(BINARY_PIPELINED) / total(Transport::Fused);
    assert!(
        ratio <= 1.3,
        "binary discrete workflow is {ratio:.3}x fused at 4 threads"
    );
}

#[test]
fn planner_picks_fused_and_binary_pipelined_with_bounded_regret() {
    let grid = figure3_grid();
    for (scenario, space, expected) in [
        ("full", PlanSpace::full(), Transport::Fused),
        ("discrete", PlanSpace::discrete(), BINARY_PIPELINED),
    ] {
        for threads in GRID_THREADS {
            let out = figure3_builder()
                .plan_space(space.clone())
                .planned()
                .run(&grid.corpus, &exec(threads))
                .unwrap();
            assert_eq!(
                out.transport, expected,
                "{scenario} space at {threads} threads"
            );
            let best = Transport::ALL
                .into_iter()
                .filter(|&t| space.allows(t))
                .map(|t| grid.run(t, threads).phases.total())
                .min()
                .unwrap();
            let regret = out.phases.total().as_secs_f64() / best.as_secs_f64();
            assert!(
                regret <= 1.25,
                "{scenario} space at {threads} threads: pick ran {regret:.3}x the best forced plan"
            );
        }
    }
}

#[test]
fn pruning_computes_at_most_a_third_of_naive_distances() {
    // A fixed budget (negative `tol` disables the convergence break)
    // keeps the fit in the near-converged regime the bounds target; both
    // kernels run the identical iteration sequence. Counted work stands
    // in for wall time, as in `weka_ordering_baseline_is_dramatically_slower`
    // (per-kernel wall clock is in `calibrate`'s ledger).
    let corpus = nsf_small();
    let e = Exec::sequential();
    let model = hpa::tfidf::TfIdf::new(TfIdfConfig::default()).fit(&e, &corpus);
    let fit = |kernel| {
        hpa::kmeans::KMeans::new(KMeansConfig {
            k: 8,
            max_iters: 15,
            tol: -1.0,
            seed: BENCH_SEED,
            kernel,
            ..Default::default()
        })
        .fit(&e, &model.vectors, model.vocab.len())
    };
    let naive = fit(AssignKernel::Naive);
    let pruned = fit(AssignKernel::BlockedPruned);
    assert_eq!(naive.assignments, pruned.assignments);
    assert_eq!(naive.inertia.to_bits(), pruned.inertia.to_bits());
    assert_eq!(naive.iterations, 15);

    let full = model.vectors.len() as u64 * 8 * 15;
    assert_eq!(naive.assign_stats.distances_computed, full);
    let computed = pruned.assign_stats.distances_computed;
    assert!(
        3 * computed <= full,
        "blocked+pruned computed {computed} of naive's {full} distances"
    );
    assert_eq!(computed + pruned.assign_stats.distances_pruned, full);
}
