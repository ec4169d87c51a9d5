#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Parallel input substrate.
//!
//! §3.2 of the paper: a CPU-bound operator can also use intra-node
//! parallelism to drive the storage system — reading independent files
//! concurrently and overlapping processing with access latency. This
//! crate provides those pieces:
//!
//! * [`load_corpus_parallel`] — open a document directory as a corpus
//!   whose files are read where they are counted: the word count's
//!   parallel loop reads each file into a recycled buffer, and its chunks'
//!   cost annotations charge those reads ([`READ_CPU_NS_PER_BYTE`] per
//!   byte) so the execution simulator can apply its storage-device model;
//! * [`Sequencer`] — an order-restoring stage in front of the bounded
//!   channel, so parallel producers feed a strictly ordered consumer
//!   (the pipelined ARFF writer's drain thread);
//! * [`ByteCounter`] — a `Write` adapter that accounts bytes and
//!   operations, turning any serial output path (e.g. the ARFF writer)
//!   into a [`TaskCost`] for the simulator.

pub mod channel;
pub mod counter;
pub mod seq;

pub use counter::ByteCounter;
pub use seq::Sequencer;

use hpa_corpus::Corpus;
use hpa_exec::{Exec, TaskCost};
use std::io;
use std::path::Path;

/// Per-byte CPU cost of moving file bytes into memory (copy + UTF-8
/// validation), used for analytic-mode annotations (`hpa_tfidf::cost`).
/// Calibrated to DRAM-speed copies: ~0.3 ns/byte.
pub const READ_CPU_NS_PER_BYTE: f64 = 0.3;

/// Declared CPU cost of listing one directory entry (read its name, keep
/// a `.txt` path, sort the paths): about what the listing of NSF × 0.025's
/// 2 537 files measures (1–2 ms). The declared cost is what the
/// simulator charges the listing in analytic mode, where an undeclared
/// one would fall back to the host's wall time.
pub const LIST_NS_PER_ENTRY: u64 = 400;

/// Open a corpus directory (written by `hpa_corpus::disk::write_corpus`):
/// list its `.txt` files, sorted as bytes, and return a [`Corpus`] that
/// reads each document only when a consumer asks for its text. The word
/// count reads every file into one recycled buffer per chunk of its
/// parallel loop and tokenizes it there, so the text is read once, while
/// the count needs it, and no document stays resident after its count.
/// The simulator charges that read to the count too (`charge_input_io`).
///
/// `exec` runs the listing as a serial step, priced as one directory
/// read plus [`LIST_NS_PER_ENTRY`] per file (and one for the directory).
///
/// # Errors
///
/// Opening or reading the directory. A file that cannot be read fails
/// the consumer that reads it, with the file's path in the error.
pub fn load_corpus_parallel(exec: &Exec, name: &str, dir: &Path) -> io::Result<Corpus> {
    let paths = exec.serial_costed(|| {
        let paths = hpa_corpus::disk::list_documents(dir);
        let entries = paths.as_ref().map_or(0, Vec::len) as u64;
        let cost = TaskCost {
            cpu_ns: LIST_NS_PER_ENTRY * (entries + 1),
            io_ops: 1,
            ..Default::default()
        };
        (paths, cost)
    })?;
    Ok(Corpus::from_files(name, paths))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_corpus::CorpusSpec;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("hpa_io_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn parallel_load_matches_sequential_read() {
        let dir = tmpdir("par");
        let corpus = CorpusSpec::mix().scaled(0.001).generate(21);
        hpa_corpus::disk::write_corpus(&corpus, &dir).unwrap();

        for exec in [
            Exec::sequential(),
            Exec::pool(3),
            Exec::simulated(4, hpa_exec::MachineModel::default()),
        ] {
            let loaded = load_corpus_parallel(&exec, "Mix", &dir).unwrap();
            assert_eq!(loaded.len(), corpus.len());
            let mut buf = String::new();
            for (i, a) in corpus.documents().unwrap().iter().enumerate() {
                assert_eq!(a.name, loaded.doc_name(i), "under {exec:?}");
                let text = loaded.text(i, &mut buf).unwrap();
                assert_eq!(a.text, text, "doc {} under {exec:?}", a.id);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_load_reads_no_document() {
        let dir = tmpdir("lazy");
        let corpus = CorpusSpec::mix().scaled(0.001).generate(3);
        hpa_corpus::disk::write_corpus(&corpus, &dir).unwrap();
        // Analytic costs: the clock holds what the listing declares, never
        // the host's wall time, so the result is the same on any host.
        let load = |io_read_bandwidth| {
            let model = hpa_exec::MachineModel {
                io_read_bandwidth,
                ..hpa_exec::MachineModel::frictionless()
            };
            let exec = Exec::simulated_with(8, model, hpa_exec::CostMode::Analytic);
            let loaded = load_corpus_parallel(&exec, "Mix", &dir).unwrap();
            (loaded, exec.now())
        };
        // Listing reads no document bytes: a very slow disk (1 MB/s)
        // costs the clock nothing, and it stays far below one file's read.
        let (loaded, slow_disk) = load(1.0e6);
        let (_, no_disk) = load(f64::INFINITY);
        assert_eq!(slow_disk, no_disk);
        let declared = LIST_NS_PER_ENTRY * (loaded.len() as u64 + 1);
        assert_eq!(slow_disk.as_nanos(), u128::from(declared));
        let one_file_ns = loaded.doc_bytes(0) as f64 / 1.0e6 * 1e9;
        assert!((slow_disk.as_nanos() as f64) < one_file_ns);
        assert!(loaded.documents().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_surfaces_error() {
        let dir = tmpdir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("gone.txt"), "soon removed").unwrap();
        let loaded = load_corpus_parallel(&Exec::sequential(), "x", &dir).unwrap();
        std::fs::remove_file(dir.join("gone.txt")).unwrap();
        let err = loaded.text(0, &mut String::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("gone.txt"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_path_list_is_ok() {
        let dir = tmpdir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let loaded = load_corpus_parallel(&Exec::sequential(), "x", &dir).unwrap();
        assert!(loaded.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_errors() {
        let err = load_corpus_parallel(&Exec::sequential(), "x", Path::new("/nonexistent/hpa"))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
