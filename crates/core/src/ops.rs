//! The paper's two operators, wrapped as workflow stages.

use crate::operator::{Operator, OperatorCtx};
use crate::WorkflowError;
use hpa_corpus::Corpus;
use hpa_kmeans::{KMeans, KMeansConfig, KMeansModel};
use hpa_sparse::SparseVec;
use hpa_tfidf::{TfIdf, TfIdfConfig, TfIdfModel};

/// TF/IDF as a workflow stage: corpus in, TF/IDF model out. Records the
/// `input+wc` and `transform` phases.
#[derive(Debug, Clone, Default)]
pub struct TfIdfOp {
    inner: TfIdf,
}

impl TfIdfOp {
    /// New stage with the given configuration.
    pub fn new(config: TfIdfConfig) -> Self {
        TfIdfOp {
            inner: TfIdf::new(config),
        }
    }
}

impl Operator<&Corpus> for TfIdfOp {
    type Out = TfIdfModel;

    fn name(&self) -> &'static str {
        "tfidf"
    }

    fn run(&self, ctx: &mut OperatorCtx<'_>, corpus: &Corpus) -> Result<TfIdfModel, WorkflowError> {
        let counts = ctx.timed("input+wc", |exec| self.inner.count_words(exec, corpus));
        let model = ctx.timed("transform", |exec| {
            let vocab = self.inner.build_vocab(exec, &counts);
            self.inner.transform(exec, &counts, &vocab)
        });
        Ok(model)
    }
}

/// K-means as a workflow stage: `(vectors, dim)` in, clustering out.
/// Records the `kmeans` phase.
#[derive(Debug, Clone, Default)]
pub struct KMeansOp {
    inner: KMeans,
}

impl KMeansOp {
    /// New stage with the given configuration.
    pub fn new(config: KMeansConfig) -> Self {
        KMeansOp {
            inner: KMeans::new(config),
        }
    }
}

impl Operator<(&[SparseVec], usize)> for KMeansOp {
    type Out = KMeansModel;

    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn run(
        &self,
        ctx: &mut OperatorCtx<'_>,
        (vectors, dim): (&[SparseVec], usize),
    ) -> Result<KMeansModel, WorkflowError> {
        Ok(ctx.timed("kmeans", |exec| self.inner.fit(exec, vectors, dim)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_exec::Exec;
    use hpa_metrics::PhaseTimer;

    #[test]
    fn tfidf_op_records_two_phases() {
        let exec = Exec::sequential();
        let mut timer = PhaseTimer::new();
        let mut ctx = OperatorCtx {
            exec: &exec,
            timer: &mut timer,
        };
        let corpus = hpa_corpus::CorpusSpec::mix().scaled(0.001).generate(1);
        let model = TfIdfOp::new(TfIdfConfig::default())
            .run(&mut ctx, &corpus)
            .unwrap();
        assert_eq!(model.vectors.len(), corpus.len());
        let report = timer.finish();
        assert_eq!(report.labels(), vec!["input+wc", "transform"]);
    }

    #[test]
    fn kmeans_op_records_kmeans_phase() {
        let exec = Exec::sequential();
        let mut timer = PhaseTimer::new();
        let mut ctx = OperatorCtx {
            exec: &exec,
            timer: &mut timer,
        };
        let vectors = vec![
            SparseVec::from_pairs(vec![(0, 1.0)]),
            SparseVec::from_pairs(vec![(1, 1.0)]),
        ];
        let model = KMeansOp::new(KMeansConfig {
            k: 2,
            max_iters: 5,
            ..Default::default()
        })
        .run(&mut ctx, (&vectors, 2))
        .unwrap();
        assert_eq!(model.assignments.len(), 2);
        assert_eq!(timer.finish().labels(), vec!["kmeans"]);
    }
}
