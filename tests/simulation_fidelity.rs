//! Integration tests for the execution simulator's figure-level claims:
//! the calibrated analytic model must reproduce the *orderings* the paper
//! reports, at reduced scale, deterministically. These are the guardrails
//! that keep future changes from silently un-reproducing the paper.

use hpa::corpus::CorpusSpec;
use hpa::dict::DictKind;
use hpa::exec::{CostMode, MachineModel};
use hpa::prelude::*;

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
    // is measured by the `ablation_assign` bench, not this figure.
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
    // parse halves of those legs — its effect is measured by the
    // `ablation_arff_pipeline` bench and the assertion below.
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
        let out = workflow(DictKind::BTree).fused().run(&corpus, &e).unwrap();
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
