#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The TF/IDF → K-means workflow and how it is composed — the paper's
//! primary contribution.
//!
//! §3.3 of the paper: analytics workflows compose operators, and the
//! composition strategy matters as much as the operators themselves.
//! *Discrete* composition runs each operator separately, communicating
//! through files on disk (here, ARFF — WEKA's format, as in the paper);
//! *fused* ("merged") composition links the operators into one binary and
//! hands intermediates over in memory. The paper's Figure 3 shows the
//! discrete workflow's I/O adding 36.9% at one thread and making the
//! 16-thread execution 3.84× slower, because the ARFF round-trip neither
//! parallelizes nor shrinks with thread count.
//!
//! This crate provides:
//!
//! * [`WorkflowBuilder`] / [`Workflow`] — the composed TF/IDF → K-means
//!   workflow. [`Workflow::run`] is the pipeline, top to bottom: count
//!   words, build the vocabulary and transform, choose the transport,
//!   write and read the intermediate if the transport has one, fit,
//!   serialize. How the matrix crosses from one operator to the other is
//!   one value, a [`PlanSpace`]: every run prices each transport the
//!   space allows with the analytic cost models (`hpa_plan::choose`) and
//!   executes the cheapest. `fused()` and `discrete()` are spaces of one
//!   transport; `planned()` leaves the choice open.
//! * [`OperatorCtx::timed`] — the one place a phase is opened: every
//!   stage records its time and its `phase/*` trace span through it,
//!   under the paper's names (`input+wc`, `transform`, `tfidf-output`,
//!   `kmeans-input`, `kmeans`, `output`). A stage of your own joins the
//!   same report the same way.
//! * [`TrainedPipeline`] — a fitted workflow kept for classifying new
//!   documents.

pub mod pipeline;

pub use pipeline::TrainedPipeline;

pub use hpa_plan::{IntermediateFormat, PlanSpace, Transport};

use hpa_arff::ArffError;
use hpa_colfmt::ColFmtError;
use hpa_corpus::Corpus;
use hpa_exec::Exec;
use hpa_kmeans::{KMeans, KMeansConfig};
use hpa_metrics::{PhaseReport, PhaseTimer};
use hpa_plan::{EmptyPlanSpace, MatrixStats};
use hpa_sparse::SparseVec;
use hpa_tfidf::{TfIdf, TfIdfConfig, TfIdfModel};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Longest corpus-name component embedded in a temporary intermediate
/// path. Sanitized names are pure ASCII, so this caps the path component
/// at 64 bytes — far under the 255-byte filename limit the filesystem
/// enforces, which an uncapped corpus name used to trip.
const MAX_CORPUS_COMPONENT: usize = 64;

/// Process-wide counter distinguishing concurrent discrete runs: two
/// workflows over the same corpus in one process must never share an
/// intermediate path (pid alone is not enough).
static DISCRETE_RUN: AtomicU64 = AtomicU64::new(0);

/// Removes the intermediate ARFF file — and the temporary directory, when
/// this run created it — whatever way the discrete arm exits. Before this
/// guard, the file leaked whenever the read-back failed, and the
/// directory leaked always.
struct IntermediateGuard {
    file: PathBuf,
    /// `Some` only for the fresh `temp_dir()` subdirectory this run made;
    /// caller-supplied directories are never deleted.
    owned_dir: Option<PathBuf>,
}

impl Drop for IntermediateGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.file);
        if let Some(dir) = &self.owned_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Sample the live-heap counter into the trace (no-op when tracing is off
/// or the counting allocator is not installed — an all-zero track would
/// read as "no heap held"). Called at phase boundaries so the trace shows
/// a heap-usage track alongside the spans.
fn sample_heap() {
    use hpa_metrics::alloc::{HeapGauge, HeapSnapshot};
    if hpa_trace::is_enabled() && HeapGauge::is_active() {
        hpa_trace::counter("mem", "heap-bytes", HeapSnapshot::now().current as u64);
    }
}

/// Shared execution context: the executor (whose clock phase times are
/// measured on — virtual under simulation) and the phase timer.
pub struct OperatorCtx<'a> {
    /// Execution substrate.
    pub exec: &'a Exec,
    /// Accumulates phase durations across the workflow.
    pub timer: &'a mut PhaseTimer,
}

impl OperatorCtx<'_> {
    /// Run `body` and record its duration (on the executor's clock) under
    /// `phase`. Also emits a `phase/<name>` trace span when tracing is on;
    /// the span covers wall-clock time, which under simulation can differ
    /// from the virtual duration recorded in the timer.
    pub fn timed<R>(&mut self, phase: &'static str, body: impl FnOnce(&Exec) -> R) -> R {
        let _span = hpa_trace::span!("phase", phase);
        let t0 = self.exec.now();
        let r = body(self.exec);
        self.timer.record(phase, self.exec.now() - t0);
        r
    }
}

/// How a discrete workflow moves the intermediate through its file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiscreteIo {
    /// Pipelined round-trip: row formatting runs chunk-parallel behind a
    /// single ordered drain thread on the write side
    /// ([`hpa_tfidf::write_arff_overlapped`]); the read side parses
    /// line-aligned chunks in parallel
    /// ([`hpa_tfidf::read_arff_parallel`]). Bytes and values are
    /// identical to [`Serial`](DiscreteIo::Serial) — only the schedule
    /// differs.
    #[default]
    Pipelined,
    /// The fully serial encode/decode, as the paper's Figure 3 measured
    /// it.
    Serial,
}

/// Errors a workflow run can surface.
#[derive(Debug)]
pub enum WorkflowError {
    /// ARFF encode/decode failure on the intermediate.
    Arff(ArffError),
    /// Binary colfmt encode/decode failure on the intermediate.
    ColFmt(ColFmtError),
    /// Filesystem failure: a document of the corpus that cannot be read
    /// (the error names its file), or the intermediate or output files.
    Io(std::io::Error),
    /// The [`PlanSpace`] leaves the matrix hand-off with no transport at
    /// all.
    Plan(EmptyPlanSpace),
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::Arff(e) => write!(f, "workflow arff error: {e}"),
            WorkflowError::ColFmt(e) => write!(f, "workflow intermediate error: {e}"),
            WorkflowError::Io(e) => write!(f, "workflow i/o error: {e}"),
            WorkflowError::Plan(e) => write!(f, "workflow planning error: {e}"),
        }
    }
}

impl std::error::Error for WorkflowError {}

impl From<ArffError> for WorkflowError {
    fn from(e: ArffError) -> Self {
        WorkflowError::Arff(e)
    }
}

impl From<ColFmtError> for WorkflowError {
    fn from(e: ColFmtError) -> Self {
        WorkflowError::ColFmt(e)
    }
}

impl From<std::io::Error> for WorkflowError {
    fn from(e: std::io::Error) -> Self {
        WorkflowError::Io(e)
    }
}

impl From<EmptyPlanSpace> for WorkflowError {
    fn from(e: EmptyPlanSpace) -> Self {
        WorkflowError::Plan(e)
    }
}

/// Result of a workflow run: the clustering plus full phase timing.
#[derive(Debug)]
pub struct WorkflowOutcome {
    /// Cluster assignment per document.
    pub assignments: Vec<u32>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
    /// Vocabulary size (TF/IDF matrix dimensionality).
    pub dim: usize,
    /// Per-phase times, under the paper's phase names, measured on the
    /// executor's clock (virtual under simulation).
    pub phases: PhaseReport,
    /// The serialized cluster-assignment output ("output" phase product).
    pub output: Vec<u8>,
    /// How the matrix crossed from TF/IDF to K-means — what the planner
    /// chose and the run executed.
    pub transport: Transport,
}

/// Builder for the TF/IDF → K-means workflow.
#[derive(Debug, Clone, Default)]
pub struct WorkflowBuilder {
    tfidf: TfIdfConfig,
    kmeans: KMeansConfig,
    discrete_io: DiscreteIo,
    intermediate_format: IntermediateFormat,
    plan_space: PlanSpace,
}

impl WorkflowBuilder {
    /// Start from default operator configurations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the TF/IDF configuration.
    pub fn tfidf(mut self, config: TfIdfConfig) -> Self {
        self.tfidf = config;
        self
    }

    /// Set the K-means configuration.
    pub fn kmeans(mut self, config: KMeansConfig) -> Self {
        self.kmeans = config;
        self
    }

    /// Set the discrete round-trip schedule (default: pipelined).
    pub fn discrete_io(mut self, io: DiscreteIo) -> Self {
        self.discrete_io = io;
        self
    }

    /// Set the on-disk encoding of the discrete intermediate (default:
    /// ARFF, for paper fidelity).
    pub fn intermediate_format(mut self, format: IntermediateFormat) -> Self {
        self.intermediate_format = format;
        self
    }

    /// Restrict the transports the planner may consider (default: every
    /// transport). Only meaningful for [`planned`](Self::planned)
    /// workflows; `fused` and `discrete` name their one transport
    /// themselves.
    pub fn plan_space(mut self, space: PlanSpace) -> Self {
        self.plan_space = space;
        self
    }

    fn build(self, plan_space: PlanSpace, dir: Option<PathBuf>) -> Workflow {
        Workflow {
            tfidf: self.tfidf,
            kmeans: self.kmeans,
            plan_space,
            dir,
        }
    }

    /// The single transport the two discrete knobs name.
    fn discrete_space(&self) -> PlanSpace {
        let format = self.intermediate_format;
        PlanSpace::only([match self.discrete_io {
            DiscreteIo::Pipelined => Transport::Pipelined(format),
            DiscreteIo::Serial => Transport::Materialized(format),
        }])
    }

    /// Finish as a fused ("merged") workflow.
    pub fn fused(self) -> Workflow {
        self.build(PlanSpace::only([Transport::Fused]), None)
    }

    /// Finish as a discrete workflow using a fresh temporary directory
    /// for the intermediate file.
    pub fn discrete(self) -> Workflow {
        let space = self.discrete_space();
        self.build(space, None)
    }

    /// Finish as a discrete workflow with an explicit intermediate
    /// directory.
    pub fn discrete_in(self, dir: PathBuf) -> Workflow {
        let space = self.discrete_space();
        self.build(space, Some(dir))
    }

    /// Finish as a planner-driven workflow: the cost-based planner
    /// picks the cheapest transport within the builder's
    /// [`PlanSpace`], using a fresh temporary directory for any
    /// intermediate it materializes.
    pub fn planned(self) -> Workflow {
        let space = self.plan_space.clone();
        self.build(space, None)
    }

    /// Finish as a planner-driven workflow with an explicit directory
    /// for any materialized intermediate.
    pub fn planned_in(self, dir: PathBuf) -> Workflow {
        let space = self.plan_space.clone();
        self.build(space, Some(dir))
    }
}

/// The composed TF/IDF → K-means workflow.
#[derive(Debug, Clone)]
pub struct Workflow {
    /// TF/IDF stage configuration.
    pub tfidf: TfIdfConfig,
    /// K-means stage configuration.
    pub kmeans: KMeansConfig,
    /// Transports the matrix hand-off may take — the composition choice
    /// (the independent variable of Figure 3). The planner runs the
    /// cheapest; a space of one transport forces it.
    pub plan_space: PlanSpace,
    /// Directory for any intermediate file the chosen transport
    /// materializes (a fresh temporary directory when `None`).
    pub dir: Option<PathBuf>,
}

/// Cost of the final "output" phase for `len` serialized bytes:
/// formatting CPU at the buffered-write rate plus the page-cache copy.
/// The single source for the charged cost and the trace prediction — a
/// drifting duplicate of this formula would fabricate conformance misses
/// in the audit ledger.
fn output_cost(len: usize) -> hpa_exec::TaskCost {
    hpa_exec::TaskCost {
        cpu_ns: (len as f64 * hpa_io::counter::WRITE_CPU_NS_PER_BYTE) as u64,
        mem_bytes: len as u64 * 2,
        ..Default::default()
    }
}

impl Workflow {
    /// Materialize the TF/IDF matrix to disk and read it back — the
    /// discrete workflow's extra cost, and the execution of any
    /// non-fused transport the planner picks. `pipelined` selects the
    /// overlapped encode/decode schedule; bytes and values are
    /// identical either way.
    fn intermediate_roundtrip(
        &self,
        ctx: &mut OperatorCtx<'_>,
        corpus: &Corpus,
        model: TfIdfModel,
        format: IntermediateFormat,
        pipelined: bool,
    ) -> Result<(Vec<SparseVec>, usize), WorkflowError> {
        // The path carries a process-wide run counter so concurrent
        // runs — even over the same corpus — never collide on the
        // intermediate.
        let run_id = DISCRETE_RUN.fetch_add(1, Ordering::Relaxed);
        let file_name = format!("tfidf_{run_id}.{}", format.extension());
        let (dir, owned_dir) = match &self.dir {
            Some(d) => (d.clone(), None),
            None => {
                let sanitized: String = corpus
                    .name
                    .chars()
                    .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                    .take(MAX_CORPUS_COMPONENT)
                    .collect();
                let tmp = std::env::temp_dir().join(format!(
                    "hpa_workflow_{}_{run_id}_{sanitized}",
                    std::process::id(),
                ));
                (tmp.clone(), Some(tmp))
            }
        };
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(file_name);
        // From here on, every exit — success, encode failure, I/O
        // failure — removes the intermediate (and the temp dir, when
        // this run created one).
        let _cleanup = IntermediateGuard {
            file: path.clone(),
            owned_dir,
        };

        ctx.timed("tfidf-output", |exec| -> Result<(), WorkflowError> {
            let file = std::io::BufWriter::new(std::fs::File::create(&path)?);
            match (format, pipelined) {
                (IntermediateFormat::Arff, true) => {
                    hpa_tfidf::write_arff_overlapped(exec, &model, file)?;
                }
                (IntermediateFormat::Arff, false) => {
                    hpa_tfidf::write_arff(exec, &model, file)?;
                }
                (IntermediateFormat::Binary, true) => {
                    hpa_tfidf::write_colfmt_overlapped(exec, &model, file)?;
                }
                (IntermediateFormat::Binary, false) => {
                    hpa_tfidf::write_colfmt(exec, &model, file)?;
                }
            }
            Ok(())
        })?;
        drop(model);
        sample_heap();

        #[cfg(test)]
        fault::maybe_fail_before_read()?;

        let read = ctx.timed("kmeans-input", |exec| -> Result<_, WorkflowError> {
            let file = std::io::BufReader::new(std::fs::File::open(&path)?);
            Ok(match (format, pipelined) {
                (IntermediateFormat::Arff, true) => hpa_tfidf::read_arff_parallel(exec, file)?,
                (IntermediateFormat::Arff, false) => hpa_tfidf::read_arff(exec, file)?,
                (IntermediateFormat::Binary, true) => hpa_tfidf::read_colfmt_parallel(exec, file)?,
                (IntermediateFormat::Binary, false) => hpa_tfidf::read_colfmt(exec, file)?,
            })
        })?;
        sample_heap();
        Ok(read)
    }

    /// Run the workflow on `corpus` under `exec`: TF/IDF, the cheapest
    /// transport the plan space allows for the matrix it produced,
    /// K-means, and the output serialization. A directory corpus is read
    /// by the word count, document by document.
    ///
    /// # Errors
    ///
    /// [`WorkflowError::Io`] when a document cannot be read (before any
    /// intermediate exists) or the intermediate file fails; the
    /// intermediate's own format errors; [`WorkflowError::Plan`] for an
    /// empty plan space.
    pub fn run(&self, corpus: &Corpus, exec: &Exec) -> Result<WorkflowOutcome, WorkflowError> {
        // A space with nothing in it can be rejected before TF/IDF runs.
        if !Transport::ALL
            .into_iter()
            .any(|t| self.plan_space.allows(t))
        {
            return Err(EmptyPlanSpace.into());
        }
        let _wf_span = hpa_trace::span!("workflow", "run", corpus.len() as u64);
        sample_heap();
        let mut timer = PhaseTimer::new();
        let mut ctx = OperatorCtx {
            exec,
            timer: &mut timer,
        };

        let tfidf = TfIdf::new(self.tfidf);
        let counts = ctx.timed("input+wc", |exec| tfidf.try_count_words(exec, corpus))?;
        let model = ctx.timed("transform", |exec| {
            let vocab = tfidf.build_vocab(exec, &counts);
            tfidf.transform(exec, &counts, &vocab)
        });
        drop(counts);

        // Priced on the *exact* matrix shape: TF/IDF has already run, so
        // the statistics are the materialized ones, not corpus-level
        // guesses.
        let stats = MatrixStats::of(&model.vectors, model.vocab.len());
        let transport = hpa_plan::choose(&self.plan_space, &stats, exec)?.transport;
        hpa_trace::instant("plan/choose", transport.label());

        let (vectors, dim) = match transport {
            Transport::Fused => {
                let dim = model.vocab.len();
                (model.vectors, dim)
            }
            Transport::Pipelined(format) => {
                self.intermediate_roundtrip(&mut ctx, corpus, model, format, true)?
            }
            Transport::Materialized(format) => {
                self.intermediate_roundtrip(&mut ctx, corpus, model, format, false)?
            }
        };

        let model = ctx.timed("kmeans", |exec| {
            KMeans::new(self.kmeans).fit(exec, &vectors, dim)
        });
        sample_heap();

        // Final "output" phase: serialize the clustering (serial).
        let output = ctx.timed("output", |exec| {
            let output = exec.serial_costed(|| {
                let mut out = Vec::with_capacity(model.assignments.len() * 12);
                use std::io::Write as _;
                for (i, a) in model.assignments.iter().enumerate() {
                    let _ = writeln!(out, "{i},{a}");
                }
                let cost = output_cost(out.len());
                (out, cost)
            });
            if hpa_trace::is_enabled() {
                // Output bytes are only known after formatting, so the
                // prediction is emitted inside the span it prices.
                hpa_trace::predict(
                    "phase",
                    "output",
                    exec.predict_serial_ns(&output_cost(output.len())),
                );
            }
            output
        });
        sample_heap();

        Ok(WorkflowOutcome {
            assignments: model.assignments,
            inertia: model.inertia,
            iterations: model.iterations,
            dim,
            phases: timer.finish(),
            output,
            transport,
        })
    }
}

/// Test-only fault injection: flag a one-shot failure between the
/// intermediate write and its read-back, on the current thread only (the
/// sequential executor runs phases on the calling thread, so parallel
/// tests stay independent).
#[cfg(test)]
mod fault {
    use std::cell::Cell;

    thread_local! {
        static FAIL_BEFORE_READ: Cell<bool> = const { Cell::new(false) };
    }

    /// Arm the fault for the next discrete run on this thread.
    pub fn arm_fail_before_read() {
        FAIL_BEFORE_READ.with(|f| f.set(true));
    }

    pub fn maybe_fail_before_read() -> std::io::Result<()> {
        if FAIL_BEFORE_READ.with(|f| f.replace(false)) {
            Err(std::io::Error::other(
                "injected failure between write and read",
            ))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_corpus::CorpusSpec;

    fn small_corpus() -> Corpus {
        CorpusSpec::mix().scaled(0.002).generate(5)
    }

    fn builder() -> WorkflowBuilder {
        WorkflowBuilder::new()
            .tfidf(TfIdfConfig {
                grain: 0,
                charge_input_io: true,
                ..Default::default()
            })
            .kmeans(KMeansConfig {
                k: 4,
                max_iters: 10,
                seed: 3,
                grain: 16,
                ..Default::default()
            })
    }

    #[test]
    fn fused_runs_and_records_paper_phases() {
        let exec = Exec::sequential();
        let corpus = small_corpus();
        let out = builder().fused().run(&corpus, &exec).unwrap();
        assert_eq!(out.assignments.len(), corpus.len());
        assert_eq!(
            out.phases.labels(),
            vec!["input+wc", "transform", "kmeans", "output"]
        );
        assert!(!out.output.is_empty());
    }

    #[test]
    fn discrete_adds_the_io_phases() {
        let exec = Exec::sequential();
        let corpus = small_corpus();
        let out = builder().discrete().run(&corpus, &exec).unwrap();
        assert_eq!(
            out.phases.labels(),
            vec![
                "input+wc",
                "transform",
                "tfidf-output",
                "kmeans-input",
                "kmeans",
                "output"
            ]
        );
    }

    #[test]
    fn discrete_and_fused_agree_on_the_clustering() {
        let exec = Exec::sequential();
        let corpus = small_corpus();
        let fused = builder().fused().run(&corpus, &exec).unwrap();
        let discrete = builder().discrete().run(&corpus, &exec).unwrap();
        assert_eq!(fused.assignments, discrete.assignments);
        assert_eq!(fused.dim, discrete.dim);
        assert!((fused.inertia - discrete.inertia).abs() < 1e-9);
    }

    #[test]
    fn simulated_discrete_charges_more_io_time_than_fused() {
        let corpus = small_corpus();
        let machine = hpa_exec::MachineModel::default();
        let run = |wf: Workflow| {
            // Analytic costs: the two totals come from separate runs, and
            // measured task times on a loaded host differ by more than
            // the round-trip adds.
            let exec = Exec::simulated_with(4, machine, hpa_exec::CostMode::Analytic);
            let out = wf.run(&corpus, &exec).unwrap();
            out.phases.total()
        };
        let fused = run(builder().fused());
        let discrete = run(builder().discrete());
        assert!(
            discrete > fused,
            "discrete {discrete:?} not slower than fused {fused:?}"
        );
    }

    /// Entries in `temp_dir()` left behind for a corpus of this name by
    /// this process (empty unless an intermediate leaked).
    fn leftover_intermediates(corpus_name: &str) -> Vec<PathBuf> {
        let marker = format!("_{corpus_name}");
        let prefix = format!("hpa_workflow_{}_", std::process::id());
        std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(&marker))
            })
            .collect()
    }

    fn named_corpus(name: &str) -> Corpus {
        let mut c = small_corpus();
        c.name = name.to_string();
        c
    }

    #[test]
    fn discrete_serial_and_pipelined_io_agree() {
        let corpus = small_corpus();
        for exec in [Exec::sequential(), Exec::pool(3)] {
            let serial = builder()
                .discrete_io(DiscreteIo::Serial)
                .discrete()
                .run(&corpus, &exec)
                .unwrap();
            let pipelined = builder()
                .discrete_io(DiscreteIo::Pipelined)
                .discrete()
                .run(&corpus, &exec)
                .unwrap();
            assert_eq!(serial.assignments, pipelined.assignments);
            assert_eq!(serial.dim, pipelined.dim);
            assert!((serial.inertia - pipelined.inertia).abs() < 1e-12);
        }
    }

    #[test]
    fn binary_discrete_matches_fused_bit_for_bit() {
        // The binary intermediate stores raw f64 bits, so the clustering
        // must match the fused run exactly — not just within tolerance.
        let corpus = small_corpus();
        for exec in [Exec::sequential(), Exec::pool(3)] {
            let fused = builder().fused().run(&corpus, &exec).unwrap();
            let binary = builder()
                .intermediate_format(IntermediateFormat::Binary)
                .discrete()
                .run(&corpus, &exec)
                .unwrap();
            assert_eq!(fused.assignments, binary.assignments);
            assert_eq!(fused.dim, binary.dim);
            assert_eq!(fused.inertia.to_bits(), binary.inertia.to_bits());
            assert_eq!(fused.iterations, binary.iterations);
        }
    }

    #[test]
    fn binary_serial_and_pipelined_io_agree() {
        let corpus = small_corpus();
        for exec in [Exec::sequential(), Exec::pool(3)] {
            let serial = builder()
                .intermediate_format(IntermediateFormat::Binary)
                .discrete_io(DiscreteIo::Serial)
                .discrete()
                .run(&corpus, &exec)
                .unwrap();
            let pipelined = builder()
                .intermediate_format(IntermediateFormat::Binary)
                .discrete_io(DiscreteIo::Pipelined)
                .discrete()
                .run(&corpus, &exec)
                .unwrap();
            assert_eq!(serial.assignments, pipelined.assignments);
            assert_eq!(serial.dim, pipelined.dim);
            assert_eq!(serial.inertia.to_bits(), pipelined.inertia.to_bits());
        }
    }

    #[test]
    fn binary_discrete_run_cleans_up_its_intermediate() {
        let corpus = named_corpus("binclean");
        let out = builder()
            .intermediate_format(IntermediateFormat::Binary)
            .discrete()
            .run(&corpus, &Exec::sequential())
            .unwrap();
        assert_eq!(out.assignments.len(), corpus.len());
        assert!(leftover_intermediates("binclean").is_empty());
    }

    #[test]
    fn failed_binary_run_leaves_no_intermediates() {
        let corpus = named_corpus("binguard");
        fault::arm_fail_before_read();
        let err = builder()
            .intermediate_format(IntermediateFormat::Binary)
            .discrete()
            .run(&corpus, &Exec::sequential())
            .unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert!(leftover_intermediates("binguard").is_empty());
    }

    #[test]
    fn binary_discrete_records_the_same_phase_labels() {
        let exec = Exec::sequential();
        let corpus = small_corpus();
        let out = builder()
            .intermediate_format(IntermediateFormat::Binary)
            .discrete()
            .run(&corpus, &exec)
            .unwrap();
        assert_eq!(
            out.phases.labels(),
            vec![
                "input+wc",
                "transform",
                "tfidf-output",
                "kmeans-input",
                "kmeans",
                "output"
            ]
        );
    }

    #[test]
    fn simulated_binary_intermediate_is_cheaper_than_arff() {
        // The cost model's side of the headline claim: under simulation
        // the binary round-trip charges less I/O time than the pipelined
        // ARFF one, on the same corpus and thread count.
        let corpus = small_corpus();
        let machine = hpa_exec::MachineModel::default();
        let io_time = |fmt: IntermediateFormat| {
            // Analytic costs: the claim is about the model, and measured
            // task times flake when the test host is loaded.
            let exec = Exec::simulated_with(4, machine, hpa_exec::CostMode::Analytic);
            let out = builder()
                .intermediate_format(fmt)
                .discrete()
                .run(&corpus, &exec)
                .unwrap();
            out.phases.get("tfidf-output").unwrap() + out.phases.get("kmeans-input").unwrap()
        };
        let arff = io_time(IntermediateFormat::Arff);
        let binary = io_time(IntermediateFormat::Binary);
        assert!(
            binary * 2 <= arff,
            "binary intermediate {binary:?} not ≥2× cheaper than ARFF {arff:?}"
        );
    }

    #[test]
    fn colfmt_workflow_error_names_the_format() {
        let err = WorkflowError::from(hpa_colfmt::ColFmtError::corrupt(3, "checksum mismatch"));
        let text = err.to_string();
        assert!(text.contains("workflow intermediate error"), "{text}");
        assert!(text.contains("chunk 3"), "{text}");
    }

    #[test]
    fn concurrent_discrete_runs_share_no_intermediate() {
        // Regression: the intermediate path used to be keyed on
        // (pid, corpus name) alone, so two simultaneous runs over the
        // same corpus raced on one file.
        let corpus = std::sync::Arc::new(named_corpus("samecorpus"));
        let outcomes: Vec<_> = std::thread::scope(|s| {
            (0..2)
                .map(|_| {
                    let corpus = std::sync::Arc::clone(&corpus);
                    s.spawn(move || {
                        builder()
                            .discrete()
                            .run(&corpus, &Exec::sequential())
                            .unwrap()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(outcomes[0].assignments, outcomes[1].assignments);
        assert!(
            leftover_intermediates("samecorpus").is_empty(),
            "both runs must clean up after themselves"
        );
    }

    #[test]
    fn failed_discrete_run_leaves_no_intermediates() {
        // Regression: a failure between the write and the read-back used
        // to leak the ARFF file, and the temp directory leaked always.
        let corpus = named_corpus("guardtest");
        fault::arm_fail_before_read();
        let err = builder()
            .discrete()
            .run(&corpus, &Exec::sequential())
            .unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert!(
            leftover_intermediates("guardtest").is_empty(),
            "failed run must remove its intermediate file and directory"
        );
    }

    #[test]
    fn successful_discrete_run_leaves_no_intermediates() {
        let corpus = named_corpus("cleancorpus");
        builder()
            .discrete()
            .run(&corpus, &Exec::sequential())
            .unwrap();
        assert!(leftover_intermediates("cleancorpus").is_empty());
    }

    #[test]
    fn explicit_intermediate_dir_is_preserved() {
        let dir = std::env::temp_dir().join(format!("hpa_userdir_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = small_corpus();
        builder()
            .discrete_in(dir.clone())
            .run(&corpus, &Exec::sequential())
            .unwrap();
        assert!(dir.is_dir(), "caller-supplied directory must survive");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "but the intermediate file inside it is removed"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn output_lists_every_document() {
        let exec = Exec::sequential();
        let corpus = small_corpus();
        let out = builder().fused().run(&corpus, &exec).unwrap();
        let text = String::from_utf8(out.output.clone()).unwrap();
        assert_eq!(text.lines().count(), corpus.len());
        assert!(text.starts_with("0,"));
    }

    #[test]
    fn empty_corpus_runs_cleanly() {
        let exec = Exec::sequential();
        let out = builder().fused().run(&Corpus::default(), &exec).unwrap();
        assert!(out.assignments.is_empty());
        assert_eq!(out.dim, 0);
    }

    #[test]
    fn empty_corpus_runs_cleanly_on_every_discrete_path() {
        // The fused arm had empty-corpus coverage; the four discrete
        // format × schedule combinations had none. A zero-document
        // matrix must round-trip through each intermediate encoding.
        let exec = Exec::sequential();
        for format in [IntermediateFormat::Arff, IntermediateFormat::Binary] {
            for io in [DiscreteIo::Pipelined, DiscreteIo::Serial] {
                let out = builder()
                    .intermediate_format(format)
                    .discrete_io(io)
                    .discrete()
                    .run(&Corpus::default(), &exec)
                    .unwrap_or_else(|e| panic!("{format:?}/{io:?}: {e}"));
                assert!(out.assignments.is_empty(), "{format:?}/{io:?}");
                assert_eq!(out.dim, 0, "{format:?}/{io:?}");
                assert!(out.output.is_empty(), "{format:?}/{io:?}");
            }
        }
        assert!(leftover_intermediates("").is_empty());
    }

    #[test]
    fn long_corpus_names_cannot_overflow_the_intermediate_path() {
        // Regression: the sanitized corpus name was embedded in the
        // temp-directory component uncapped, so a name past the
        // filesystem's 255-byte component limit failed create_dir_all
        // with ENAMETOOLONG. Now the component is truncated.
        let name = "x".repeat(300);
        let corpus = named_corpus(&name);
        let out = builder()
            .discrete()
            .run(&corpus, &Exec::sequential())
            .unwrap();
        assert_eq!(out.assignments.len(), corpus.len());
        let truncated: String = name.chars().take(MAX_CORPUS_COMPONENT).collect();
        assert!(leftover_intermediates(&truncated).is_empty());
    }

    #[test]
    fn output_cost_uses_the_shared_write_rate() {
        // Regression: the "output" phase charge and its trace
        // prediction each carried their own copy of the 1.2 ns/B
        // literal; both now flow through `output_cost`, which reads
        // the rate from `hpa_io`.
        let c = output_cost(1000);
        assert_eq!(
            c.cpu_ns,
            (1000.0 * hpa_io::counter::WRITE_CPU_NS_PER_BYTE) as u64
        );
        assert_eq!(c.mem_bytes, 2000);
        assert_eq!(output_cost(0), hpa_exec::TaskCost::default());
    }

    #[test]
    fn forced_strategies_report_their_plan() {
        let exec = Exec::sequential();
        let corpus = small_corpus();
        let fused = builder().fused().run(&corpus, &exec).unwrap();
        assert_eq!(fused.transport, Transport::Fused);
        let discrete = builder()
            .intermediate_format(IntermediateFormat::Binary)
            .discrete_io(DiscreteIo::Serial)
            .discrete()
            .run(&corpus, &exec)
            .unwrap();
        assert_eq!(
            discrete.transport,
            Transport::Materialized(IntermediateFormat::Binary)
        );
    }

    #[test]
    fn planned_full_space_matches_fused_bit_for_bit() {
        let exec = Exec::sequential();
        let corpus = small_corpus();
        let fused = builder().fused().run(&corpus, &exec).unwrap();
        let planned = builder().planned().run(&corpus, &exec).unwrap();
        assert_eq!(planned.transport, Transport::Fused);
        assert_eq!(planned.assignments, fused.assignments);
        assert_eq!(planned.dim, fused.dim);
        assert_eq!(planned.inertia.to_bits(), fused.inertia.to_bits());
        assert_eq!(
            planned.phases.labels(),
            vec!["input+wc", "transform", "kmeans", "output"]
        );
    }

    #[test]
    fn planned_discrete_space_takes_a_file_transport() {
        let exec = Exec::sequential();
        let corpus = small_corpus();
        let out = builder()
            .plan_space(PlanSpace::discrete())
            .planned()
            .run(&corpus, &exec)
            .unwrap();
        assert_ne!(out.transport, Transport::Fused, "matrix must take a file");
        assert_eq!(
            out.phases.labels(),
            vec![
                "input+wc",
                "transform",
                "tfidf-output",
                "kmeans-input",
                "kmeans",
                "output"
            ]
        );
        let fused = builder().fused().run(&corpus, &exec).unwrap();
        assert_eq!(out.assignments, fused.assignments);
        assert_eq!(out.dim, fused.dim);
    }

    #[test]
    fn planned_runs_clean_up_their_intermediates() {
        let corpus = named_corpus("plannedclean");
        let out = builder()
            .plan_space(PlanSpace::discrete())
            .planned()
            .run(&corpus, &Exec::sequential())
            .unwrap();
        assert_ne!(out.transport, Transport::Fused);
        assert!(leftover_intermediates("plannedclean").is_empty());
    }

    #[test]
    fn empty_plan_space_surfaces_a_planning_error() {
        // The trace is process-global and other tests of this binary run
        // workflows meanwhile, so judge only this thread's spans: the
        // sequential executor runs every phase on the calling thread.
        let corpus = small_corpus();
        hpa_trace::enable();
        drop(hpa_trace::span!("test", "empty-plan-space"));
        let err = builder()
            .plan_space(PlanSpace::only(std::iter::empty::<Transport>()))
            .planned()
            .run(&corpus, &Exec::sequential())
            .unwrap_err();
        hpa_trace::disable();
        let rec = hpa_trace::take();
        assert!(matches!(err, WorkflowError::Plan(_)), "{err}");
        assert!(err.to_string().contains("planning"), "{err}");
        let here = rec
            .spans_in("test")
            .find(|s| s.name == "empty-plan-space")
            .expect("marker span recorded")
            .tid;
        let phases: Vec<_> = rec
            .spans_in("phase")
            .filter(|s| s.tid == here)
            .map(|s| s.name)
            .collect();
        assert!(phases.is_empty(), "rejected only after running {phases:?}");
    }

    #[test]
    fn timed_uses_virtual_clock_under_simulation() {
        let exec = Exec::simulated_with(
            2,
            hpa_exec::MachineModel::frictionless(),
            hpa_exec::CostMode::Analytic,
        );
        let mut timer = PhaseTimer::new();
        let mut ctx = OperatorCtx {
            exec: &exec,
            timer: &mut timer,
        };
        ctx.timed("work", |exec| {
            exec.serial(hpa_exec::TaskCost::cpu(5_000_000), || ());
        });
        let report = timer.finish();
        assert_eq!(
            report.get("work"),
            Some(std::time::Duration::from_millis(5))
        );
    }
}
