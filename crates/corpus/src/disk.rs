//! On-disk corpus layout.
//!
//! The paper's TF/IDF operator reads "independent files concurrently" —
//! one text file per document in a directory. This module writes that
//! layout and lists it: a listing holds the document files' paths sorted
//! by their bytes, so ids are stable regardless of directory iteration
//! order, and a corpus built on it ([`Corpus::from_files`]) reads each
//! file only when a consumer asks for its text.

use crate::Corpus;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Write one `.txt` file per document into `dir` (created if missing).
/// Returns the number of files written.
///
/// # Errors
///
/// Creating `dir` or a file, writing it, or reading a document of a
/// directory corpus ([`Corpus::text`]).
pub fn write_corpus(corpus: &Corpus, dir: &Path) -> io::Result<usize> {
    fs::create_dir_all(dir)?;
    let mut buf = String::new();
    for i in 0..corpus.len() {
        let text = corpus.text(i, &mut buf)?;
        let mut f = fs::File::create(dir.join(&*corpus.doc_name(i)))?;
        f.write_all(text.as_bytes())?;
    }
    Ok(corpus.len())
}

/// The paths of the document files of a corpus directory — entries
/// whose extension is `txt` — sorted as bytes. They share the directory
/// prefix, so this is the order of their file names' bytes, and the
/// order `PathBuf`'s component-wise comparison gives, at one `memcmp` per
/// comparison.
///
/// # Errors
///
/// Opening or reading the directory.
pub fn list_documents(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "txt") {
            paths.push(path);
        }
    }
    paths.sort_unstable_by(|a, b| a.as_os_str().cmp(b.as_os_str()));
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CorpusSpec;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("hpa_corpus_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn round_trip_preserves_documents() {
        let dir = tmpdir("rt");
        let c = CorpusSpec::mix().scaled(0.001).generate(3);
        let n = write_corpus(&c, &dir).unwrap();
        assert_eq!(n, c.len());
        let back = Corpus::from_files("Mix", list_documents(&dir).unwrap());
        assert_eq!(back.len(), c.len());
        assert!(
            back.documents().is_none(),
            "a directory corpus holds no text"
        );
        let mut buf = String::new();
        for (i, a) in c.documents().unwrap().iter().enumerate() {
            assert_eq!(a.name, back.doc_name(i));
            assert_eq!(a.text, back.text(i, &mut buf).unwrap());
            assert_eq!(a.text.len() as u64, back.doc_bytes(i));
        }
        assert_eq!(back.total_bytes(), c.total_bytes());
        assert_eq!(back.stats().unwrap(), c.stats().unwrap());
        // Writing a directory corpus copies it file for file.
        let copy = tmpdir("rt_copy");
        write_corpus(&back, &copy).unwrap();
        let names = |dir| -> Vec<_> {
            let paths = list_documents(dir).unwrap();
            paths
                .iter()
                .map(|p| p.file_name().unwrap().to_owned())
                .collect()
        };
        assert_eq!(names(&copy), names(&dir));
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&copy).unwrap();
    }

    #[test]
    fn list_documents_sorted_and_filtered() {
        let dir = tmpdir("ls");
        fs::create_dir_all(&dir).unwrap();
        for name in ["b.txt", "a.txt", "B.txt", "a0.txt", "ignore.dat", "txt"] {
            fs::write(dir.join(name), "x").unwrap();
        }
        let paths = list_documents(&dir).unwrap();
        let names: Vec<_> = paths.iter().map(|p| p.file_name().unwrap()).collect();
        // As bytes: upper case before lower case, `.` (0x2E) before `0`.
        assert_eq!(names, ["B.txt", "a.txt", "a0.txt", "b.txt"]);
        // The order `PathBuf` sorts them in.
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(sorted, paths);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_errors() {
        let err = list_documents(Path::new("/nonexistent/hpa/dir")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn a_name_that_is_no_utf8_still_reads() {
        use std::os::unix::ffi::OsStrExt as _;
        let dir = tmpdir("latin1_name");
        fs::create_dir_all(&dir).unwrap();
        let name = std::ffi::OsStr::from_bytes(b"caf\xe9.txt");
        fs::write(dir.join(name), "cafe words").unwrap();
        let c = Corpus::from_files("x", list_documents(&dir).unwrap());
        assert_eq!(c.len(), 1);
        assert_eq!(c.text(0, &mut String::new()).unwrap(), "cafe words");
        assert_eq!(c.doc_name(0), "caf\u{fffd}.txt");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_read_names_its_file() {
        let dir = tmpdir("err");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("good.txt"), "fine words").unwrap();
        fs::write(dir.join("latin1.txt"), b"caf\xe9").unwrap();
        let c = Corpus::from_files("x", list_documents(&dir).unwrap());
        let mut buf = String::new();
        assert_eq!(c.text(0, &mut buf).unwrap(), "fine words");
        let err = c.text(1, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("latin1.txt"), "{err}");
        fs::remove_file(dir.join("good.txt")).unwrap();
        let err = c.text(0, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("good.txt"), "{err}");
        assert!(c.stats().is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
