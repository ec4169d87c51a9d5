//! Ablation — cost-based fusion planner: does the planner's pick match
//! the measured-best forced plan?
//!
//! The planner (`hpa_plan`) prices every transport the plan space
//! allows and executes the cheapest. This bench measures all five
//! forced plans (fused, plus the four file transports) across the
//! thread grid, then runs the planner in two scenarios — the full
//! space, and the discrete space (fusion off the table, the paper's
//! "operators stay separate programs" setting) — and checks, in-binary
//! at every swept thread count, that the plan the planner picked lands
//! within 1.25× of the fastest measured forced plan in its scenario.
//! That bounds the cost model's regret: the planner may not pick the
//! measured optimum, but it must never pick a clunker.
//!
//! Emits `BENCH_planner.json` into the output directory (the CI
//! bench-smoke artifact). The picks and the regret bound are also
//! tier-1 tests in `tests/simulation_fidelity.rs` — a changed pick is a
//! planner regression, not noise.

use hpa_bench::json::JsonWriter;
use hpa_bench::BenchConfig;
use hpa_core::{PlanSpace, Transport, WorkflowBuilder};
use hpa_dict::DictKind;
use hpa_kmeans::KMeansConfig;
use hpa_metrics::{ExperimentReport, Table};
use hpa_tfidf::TfIdfConfig;

/// End-to-end seconds of one forced plan at one thread count.
struct Run {
    threads: usize,
    total_s: f64,
}

/// One forced arm: a transport measured across the thread grid.
struct Arm {
    label: &'static str,
    runs: Vec<Run>,
}

/// One planner decision: scenario × thread count → picked transport
/// and its regret against the measured-best forced plan.
struct Pick {
    scenario: &'static str,
    threads: usize,
    pick: &'static str,
    total_s: f64,
    over_best: f64,
}

fn main() {
    let cfg = BenchConfig::from_env();
    let mut report = ExperimentReport::new(
        "ablation_planner",
        "cost-based fusion planner vs the measured-best forced plan",
        &cfg.mode.describe(),
        &cfg.scale_label(),
    );

    let corpus = cfg.nsf();
    let tfidf_config = TfIdfConfig {
        dict_kind: DictKind::BTree,
        grain: 0,
        charge_input_io: true,
        ..Default::default()
    };
    let kmeans_config = KMeansConfig {
        k: 8,
        max_iters: 10,
        tol: 0.0,
        seed: cfg.seed,
        ..Default::default()
    };
    let base = || {
        WorkflowBuilder::new()
            .tfidf(tfidf_config)
            .kmeans(kmeans_config)
    };
    // A forced plan is a plan space of one.
    let forced = |t: Transport| base().plan_space(PlanSpace::only([t])).planned();

    // ---- Forced arms: every plan the planner could pick -------------
    let arms: Vec<Arm> = Transport::ALL
        .into_iter()
        .map(|t| Arm {
            label: t.label(),
            runs: cfg
                .threads
                .iter()
                .map(|&threads| {
                    let exec = cfg.mode.exec(threads);
                    let out = forced(t).run(&corpus, &exec).expect("forced run");
                    assert_eq!(out.transport, t, "forced plan must report itself");
                    Run {
                        threads,
                        total_s: out.phases.total().as_secs_f64(),
                    }
                })
                .collect(),
        })
        .collect();

    // ---- Planner scenarios ------------------------------------------
    // The measured-best forced plan in the scenario, at thread index i.
    // The only scenario distinction is whether fusion is on the table.
    let best_forced = |fused_allowed: bool, i: usize| -> (&'static str, f64) {
        arms.iter()
            .filter(|a| fused_allowed || a.label != "fused")
            .map(|a| (a.label, a.runs[i].total_s))
            .min_by(|x, y| x.1.total_cmp(&y.1))
            .expect("at least one allowed arm")
    };
    let scenarios = [
        ("full", PlanSpace::full(), true),
        ("discrete", PlanSpace::discrete(), false),
    ];
    let mut picks: Vec<Pick> = Vec::new();
    for (scenario, space, fused_allowed) in &scenarios {
        for (i, &threads) in cfg.threads.iter().enumerate() {
            let exec = cfg.mode.exec(threads);
            let out = base()
                .plan_space(space.clone())
                .planned()
                .run(&corpus, &exec)
                .expect("planned run");
            let pick = out.transport.label();
            assert!(
                *fused_allowed || pick != "fused",
                "{scenario}: planner picked {pick}, outside its space"
            );
            let total_s = out.phases.total().as_secs_f64();
            let (best_label, best_s) = best_forced(*fused_allowed, i);
            let over_best = total_s / best_s.max(1e-12);
            assert!(
                over_best <= 1.25,
                "{scenario} at {threads} threads: planner pick {pick} ran {total_s:.4}s, \
                 more than 1.25x the best forced plan {best_label} ({best_s:.4}s)"
            );
            picks.push(Pick {
                scenario,
                threads,
                pick,
                total_s,
                over_best,
            });
        }
    }

    // ---- Report ------------------------------------------------------
    let mut table = Table::new(
        "planner pick vs measured-best forced plan",
        &["scenario", "threads", "pick", "total s", "vs best forced"],
    );
    for p in &picks {
        table.row(&[
            p.scenario.to_string(),
            p.threads.to_string(),
            p.pick.to_string(),
            format!("{:.4}", p.total_s),
            format!("{:.3}x", p.over_best),
        ]);
    }
    report.add_table(table);
    report
        .note("planner regret bounded at 1.25x the measured-best forced plan (asserted in-binary)");

    let ref_i = cfg
        .threads
        .iter()
        .position(|&t| t >= 4)
        .unwrap_or(cfg.threads.len().saturating_sub(1));
    let at_ref = |scenario: &str| -> &Pick {
        picks
            .iter()
            .find(|p| p.scenario == scenario && p.threads == cfg.threads[ref_i])
            .expect("reference pick exists")
    };
    let (full_ref, discrete_ref) = (at_ref("full"), at_ref("discrete"));
    eprintln!(
        "headline at {} threads: full space picked {} ({:.3}x best), \
         discrete space picked {} ({:.3}x best)",
        cfg.threads[ref_i],
        full_ref.pick,
        full_ref.over_best,
        discrete_ref.pick,
        discrete_ref.over_best
    );

    let json = JsonWriter::document(|w| {
        w.str_field("bench", "planner");
        w.str_field("corpus", &corpus.name);
        w.f64_field_display("scale", cfg.scale);
        w.u64_field("seed", cfg.seed);
        w.u64_field("reference_threads", cfg.threads[ref_i] as u64);
        w.f64_field("pick_over_best_full", full_ref.over_best, 4);
        w.f64_field("pick_over_best_discrete", discrete_ref.over_best, 4);
        w.array_field("picks", |w| {
            for p in &picks {
                w.raw_elem(&format!(
                    "{{\"scenario\": \"{}\", \"threads\": {}, \"pick\": \"{}\", \
                     \"total_s\": {:.6}, \"over_best\": {:.4}}}",
                    p.scenario, p.threads, p.pick, p.total_s, p.over_best
                ));
            }
        });
        w.array_field("arms", |w| {
            for arm in &arms {
                w.object_elem(|w| {
                    w.str_field("transport", arm.label);
                    w.array_field("runs", |w| {
                        for r in &arm.runs {
                            w.raw_elem(&format!(
                                "{{\"threads\": {}, \"total_s\": {:.6}}}",
                                r.threads, r.total_s
                            ));
                        }
                    });
                });
            }
        });
    });
    let json_path = cfg.out_dir.join("BENCH_planner.json");
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("warning: could not create {}: {e}", cfg.out_dir.display());
    }
    match std::fs::write(&json_path, json) {
        Ok(()) => println!("wrote {}", json_path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", json_path.display()),
    }
    cfg.emit(&report);
}
