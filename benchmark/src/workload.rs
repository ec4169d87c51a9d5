//! The benchmark's workloads: which corpus, which transport for the
//! TF/IDF matrix, which `k`.

use hpa::prelude::*;
use std::path::Path;

/// Share of the paper's NSF-abstracts corpus the `nsf_*` workloads use.
/// Sized, with [`MIX_SCALE`], so that the driver's 92 runs fit its hour;
/// shrink these two, not the repetition counts, if a run must be shorter.
pub const NSF_SCALE: f64 = 0.025;
/// Share of the paper's Mix corpus `mix_k128` uses.
pub const MIX_SCALE: f64 = 0.06;
/// `--quick` divides both scales by this.
pub const QUICK_DIVISOR: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusKind {
    Nsf,
    Mix,
}

/// How the TF/IDF matrix reaches K-means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixPath {
    /// In memory, no intermediate file.
    Fused,
    /// Serial ARFF write and read-back: the paper's Figure 3 discrete arm.
    ArffSerial,
    /// Chunk-parallel `.hpac` write and read-back.
    HpacPipelined,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub corpus: CorpusKind,
    pub path: MatrixPath,
    pub k: usize,
    /// Why the workload exists: what it exercises and what it bypasses.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "nsf_fused",
        corpus: CorpusKind::Nsf,
        path: MatrixPath::Fused,
        k: 8,
        why: "many small documents, no intermediate file: exercises input, tokenizer and \
              dictionary; bypasses every transport",
    },
    Workload {
        name: "nsf_arff",
        corpus: CorpusKind::Nsf,
        path: MatrixPath::ArffSerial,
        k: 8,
        why: "same corpus through a serial ARFF file (the paper's Figure 3 discrete arm): \
              exercises the text transport, the serial layer that should hold speedup near 1",
    },
    Workload {
        name: "nsf_hpac",
        corpus: CorpusKind::Nsf,
        path: MatrixPath::HpacPipelined,
        k: 8,
        why: "same corpus through a chunk-parallel binary file: a change to the shared \
              writer/reader plumbing that helps one format and costs the other moves nsf_arff \
              and nsf_hpac in opposite directions",
    },
    Workload {
        name: "mix_k128",
        corpus: CorpusKind::Mix,
        path: MatrixPath::Fused,
        k: 128,
        why: "longer documents and 128 centroids put the time in K-means: exercises assignment \
              kernel, pruning and dispatch; bypasses dictionary and transport changes",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Scale of the corpus preset this workload generates.
    pub fn scale(&self, quick: bool) -> f64 {
        let full = match self.corpus {
            CorpusKind::Nsf => NSF_SCALE,
            CorpusKind::Mix => MIX_SCALE,
        };
        if quick {
            full / QUICK_DIVISOR
        } else {
            full
        }
    }

    pub fn corpus_spec(&self, quick: bool) -> CorpusSpec {
        let preset = match self.corpus {
            CorpusKind::Nsf => CorpusSpec::nsf_abstracts(),
            CorpusKind::Mix => CorpusSpec::mix(),
        };
        preset.scaled(self.scale(quick))
    }

    /// `DictKind::Auto`, everything else the library default.
    pub fn tfidf_config(&self) -> TfIdfConfig {
        TfIdfConfig {
            dict_kind: DictKind::Auto,
            ..Default::default()
        }
    }

    /// The library default (30 iterations at most, `tol` 1e-9, seed 42,
    /// default kernel and dispatch) with this workload's `k`.
    pub fn kmeans_config(&self) -> KMeansConfig {
        KMeansConfig {
            k: self.k,
            ..Default::default()
        }
    }

    /// The workflow an end-to-end repetition runs; a discrete one puts
    /// its intermediate file in `intermediate_dir`.
    pub fn workflow(&self, intermediate_dir: &Path) -> Workflow {
        let builder = WorkflowBuilder::new()
            .tfidf(self.tfidf_config())
            .kmeans(self.kmeans_config());
        match self.path {
            MatrixPath::Fused => builder.fused(),
            MatrixPath::ArffSerial => builder
                .discrete_io(DiscreteIo::Serial)
                .intermediate_format(IntermediateFormat::Arff)
                .discrete_in(intermediate_dir.to_path_buf()),
            MatrixPath::HpacPipelined => builder
                .discrete_io(DiscreteIo::Pipelined)
                .intermediate_format(IntermediateFormat::Binary)
                .discrete_in(intermediate_dir.to_path_buf()),
        }
    }
}
