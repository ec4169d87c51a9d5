//! Criterion microbenchmarks of the substrate crates: the kernels whose
//! costs the analytic model estimates. Running these on a given host is
//! how you would re-derive the cost-model constants for that host.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpa_arff::{ArffHeader, ArffReader, ArffWriter};
use hpa_corpus::{CorpusSpec, Tokenizer};
use hpa_dict::{DictKind, Dictionary};
use hpa_exec::{Exec, TaskCost};
use hpa_sparse::{squared_distance_to_centroid, DenseVec, SparseVec};

fn corpus_text() -> String {
    let corpus = CorpusSpec::mix().scaled(0.001).generate(5);
    corpus
        .documents()
        .iter()
        .map(|d| d.text.as_str())
        .collect::<Vec<_>>()
        .join("\n")
}

fn bench_tokenizer(c: &mut Criterion) {
    let text = corpus_text();
    let mut g = c.benchmark_group("tokenizer");
    g.throughput(Throughput::Bytes(text.len() as u64));
    g.bench_function("for_each", |b| {
        let mut tok = Tokenizer::new();
        b.iter(|| {
            let mut n = 0u64;
            tok.for_each(&text, |w| n += w.len() as u64);
            black_box(n)
        })
    });
    g.finish();
}

fn bench_dictionaries(c: &mut Criterion) {
    let text = corpus_text();
    let mut tok = Tokenizer::new();
    let mut words: Vec<String> = Vec::new();
    tok.for_each(&text, |w| words.push(w.to_string()));

    let mut g = c.benchmark_group("dictionary_wordcount");
    g.throughput(Throughput::Elements(words.len() as u64));
    for kind in [
        DictKind::BTree,
        DictKind::Hash,
        DictKind::HashPresized(4096),
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &kind,
            |b, kind| {
                b.iter(|| {
                    let mut d = kind.new_dict();
                    for w in &words {
                        d.add(w, 1);
                    }
                    black_box(d.len())
                })
            },
        );
    }
    g.finish();

    // Lookup-only phase (the transform's access pattern).
    let mut g = c.benchmark_group("dictionary_lookup");
    g.throughput(Throughput::Elements(words.len() as u64));
    for kind in [DictKind::BTree, DictKind::Hash] {
        let mut dict = kind.new_dict();
        for w in &words {
            dict.add(w, 1);
        }
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &dict,
            |b, dict| {
                b.iter(|| {
                    let mut hits = 0u64;
                    for w in &words {
                        if dict.get(w).is_some() {
                            hits += 1;
                        }
                    }
                    black_box(hits)
                })
            },
        );
    }
    g.finish();
}

fn bench_sparse_kernels(c: &mut Criterion) {
    let nnz = 200;
    let dim = 50_000;
    let x = SparseVec::from_pairs(
        (0..nnz)
            .map(|i| ((i * (dim / nnz)) as u32, 1.0 + i as f64))
            .collect(),
    );
    let mut centroid = DenseVec::zeros(dim);
    centroid.add_sparse(&x);
    centroid.scale(0.5);
    let norm = centroid.norm_sq();

    let mut g = c.benchmark_group("sparse");
    g.throughput(Throughput::Elements(nnz as u64));
    g.bench_function("distance_to_centroid", |b| {
        b.iter(|| black_box(squared_distance_to_centroid(&x, &centroid, norm)))
    });
    g.bench_function("add_into_dense", |b| {
        let mut acc = vec![0.0; dim];
        b.iter(|| {
            x.add_into_dense(&mut acc);
            black_box(acc[0])
        })
    });
    g.bench_function("dot_sparse_sparse", |b| {
        let y = x.clone();
        b.iter(|| black_box(x.dot(&y)))
    });
    g.finish();
}

fn bench_arff_codec(c: &mut Criterion) {
    let rows: Vec<SparseVec> = (0..200)
        .map(|r| {
            SparseVec::from_pairs(
                (0..150)
                    .map(|i| ((i * 37 + r) as u32 % 5000, 0.001 * (i + r) as f64))
                    .collect(),
            )
        })
        .collect();
    let header = ArffHeader::numeric("bench", (0..5000).map(|i| format!("t{i}")));
    let encode = |rows: &[SparseVec]| {
        let mut w = ArffWriter::new(Vec::new());
        w.write_header(&header).unwrap();
        for r in rows {
            w.write_sparse_row(r).unwrap();
        }
        w.finish().unwrap()
    };
    let encoded = encode(&rows);
    let nnz: u64 = rows.iter().map(|r| r.nnz() as u64).sum();

    let mut g = c.benchmark_group("arff");
    g.throughput(Throughput::Elements(nnz));
    g.bench_function("encode_sparse", |b| b.iter(|| black_box(encode(&rows))));
    g.bench_function("decode_sparse", |b| {
        b.iter(|| {
            let mut r = ArffReader::new(std::io::Cursor::new(&encoded)).unwrap();
            black_box(r.read_all().unwrap().len())
        })
    });
    g.finish();
}

fn bench_executor(c: &mut Criterion) {
    let mut g = c.benchmark_group("executor");
    // Spawn/teardown overhead of one parallel region on the real pool.
    let pool = Exec::pool(2);
    g.bench_function("pool_par_for_1k_tasks", |b| {
        b.iter(|| {
            let acc = std::sync::atomic::AtomicU64::new(0);
            pool.par_chunks(
                1000,
                1,
                |range| {
                    for i in range {
                        acc.fetch_add(i as u64, std::sync::atomic::Ordering::Relaxed);
                    }
                },
                |_| TaskCost::default(),
            );
            black_box(acc.into_inner())
        })
    });
    // Simulator scheduling throughput (cost-model path).
    let sim = Exec::simulated_with(
        16,
        hpa_exec::MachineModel::default(),
        hpa_exec::CostMode::Analytic,
    );
    g.bench_function("sim_schedule_1k_tasks", |b| {
        b.iter(|| {
            sim.par_chunks(1000, 1, |_| {}, |_| TaskCost::cpu(1000));
            black_box(sim.now())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tokenizer,
    bench_dictionaries,
    bench_sparse_kernels,
    bench_arff_codec,
    bench_executor
);
criterion_main!(benches);
