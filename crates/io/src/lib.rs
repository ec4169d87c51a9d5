#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Parallel input substrate.
//!
//! §3.2 of the paper: a CPU-bound operator can also use intra-node
//! parallelism to drive the storage system — reading independent files
//! concurrently and overlapping processing with access latency. This
//! crate provides those pieces:
//!
//! * [`load_corpus_parallel`] — read a document directory with a parallel
//!   loop ([`map_files_parallel`]), each file annotated with its I/O cost
//!   so the execution simulator can apply its storage-device model;
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

use hpa_exec::sync::Mutex;
use hpa_exec::{Exec, TaskCost};
use std::io;
use std::path::{Path, PathBuf};

/// Per-byte CPU cost of moving file bytes into memory (copy + UTF-8
/// validation), used for analytic-mode annotations. Calibrated to
/// DRAM-speed copies: ~0.3 ns/byte.
pub const READ_CPU_NS_PER_BYTE: f64 = 0.3;

/// Read one file to a string, returning its [`TaskCost`].
pub fn read_file_costed(path: &Path) -> io::Result<(String, TaskCost)> {
    let text = std::fs::read_to_string(path)?;
    let bytes = text.len() as u64;
    let cost = TaskCost {
        cpu_ns: (bytes as f64 * READ_CPU_NS_PER_BYTE) as u64,
        mem_bytes: bytes,
        io_read_bytes: bytes,
        io_ops: 1,
        ..Default::default()
    };
    Ok((text, cost))
}

/// Read every file of `paths` in parallel under `exec` and hand each
/// one's text — the `String` the read produced, not a copy — to
/// `make(index, text)`; the products come back in path order, collected
/// per chunk of the loop. A chunk's declared cost `stat`s its files;
/// only the simulator and cost predictions ask for it, so real threads
/// read without a serial pass of `stat` calls first.
///
/// Returns the first I/O error encountered, if any (all files are still
/// attempted).
pub fn map_files_parallel<T, F>(exec: &Exec, paths: &[PathBuf], make: F) -> io::Result<Vec<T>>
where
    T: Send,
    F: Fn(usize, String) -> T + Sync,
{
    let first_error: Mutex<Option<io::Error>> = Mutex::new(None);
    let chunks = exec.par_map_chunks(
        paths.len(),
        0,
        |range| {
            let mut made = Vec::with_capacity(range.len());
            for i in range {
                match std::fs::read_to_string(&paths[i]) {
                    Ok(text) => made.push(make(i, text)),
                    Err(e) => {
                        first_error.lock().get_or_insert(e);
                    }
                }
            }
            made
        },
        |range| {
            // An unreadable file costs 0 here and surfaces its error from
            // the read.
            let bytes: u64 = paths[range.clone()]
                .iter()
                .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
                .sum();
            TaskCost {
                cpu_ns: (bytes as f64 * READ_CPU_NS_PER_BYTE) as u64,
                mem_bytes: bytes,
                io_read_bytes: bytes,
                io_ops: range.len() as u64,
                ..Default::default()
            }
        },
    );
    if let Some(e) = first_error.into_inner() {
        return Err(e);
    }
    Ok(chunks.into_iter().flatten().collect())
}

/// Load a corpus directory (written by `hpa_corpus::disk::write_corpus`)
/// using a parallel read loop.
pub fn load_corpus_parallel(exec: &Exec, name: &str, dir: &Path) -> io::Result<hpa_corpus::Corpus> {
    let paths = hpa_corpus::disk::list_documents(dir)?;
    let docs = map_files_parallel(exec, &paths, |i, text| hpa_corpus::Document {
        id: i as u32,
        name: paths[i]
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("unnamed.txt")
            .to_string(),
        text,
    })?;
    Ok(hpa_corpus::Corpus::from_documents(name, docs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_corpus::CorpusSpec;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hpa_io_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn read_file_costed_reports_bytes_and_ops() {
        let dir = tmpdir("cost");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("x.txt");
        std::fs::write(&p, "hello world").unwrap();
        let (text, cost) = read_file_costed(&p).unwrap();
        assert_eq!(text, "hello world");
        assert_eq!(cost.io_read_bytes, 11);
        assert_eq!(cost.io_ops, 1);
        assert_eq!(cost.mem_bytes, 11);
        std::fs::remove_dir_all(&dir).unwrap();
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
            for (a, b) in corpus.documents().iter().zip(loaded.documents()) {
                assert_eq!(a, b, "doc {} under {exec:?}", a.id);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn simulated_load_charges_io_time() {
        let dir = tmpdir("sim");
        let corpus = CorpusSpec::mix().scaled(0.001).generate(3);
        hpa_corpus::disk::write_corpus(&corpus, &dir).unwrap();
        // A very slow simulated disk: the virtual clock must reflect it.
        let model = hpa_exec::MachineModel {
            io_read_bandwidth: 1.0e6, // 1 MB/s
            ..hpa_exec::MachineModel::frictionless()
        };
        let exec = Exec::simulated(8, model);
        let loaded = load_corpus_parallel(&exec, "Mix", &dir).unwrap();
        let expected_ns = loaded.total_bytes() as f64 / 1.0e6 * 1e9;
        let clock = exec.now().as_nanos() as f64;
        assert!(
            clock >= expected_ns * 0.99,
            "clock {clock} vs expected {expected_ns}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_surfaces_error() {
        let exec = Exec::sequential();
        let err = map_files_parallel(&exec, &[PathBuf::from("/nonexistent/file.txt")], |_, _| {})
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn empty_path_list_is_ok() {
        let exec = Exec::sequential();
        let made = map_files_parallel(&exec, &[], |_, _| -> u8 { panic!() });
        assert!(made.unwrap().is_empty());
    }
}
