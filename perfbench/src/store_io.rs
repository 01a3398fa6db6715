//! The store's filesystem for the benchmark: an in-memory [`StoreIo`], and
//! a wrapper that times every operation on it.
//!
//! The artifact store runs unchanged on top of it: envelopes, checksums,
//! temporary files and atomic renames all happen, only the bytes stay in
//! memory. An on-disk store measured on this benchmark's reference
//! machine (2 vCPUs, ext4 mounted with `discard`) was not steady: the same
//! cold-store campaign ran at 530 to 1490 configs/s across runs, with most
//! of its CPU time in the kernel, and the benchmark may write only inside
//! its checkout, so a tmpfs is not available to it.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use holes_pipeline::store::io::StoreIo;

use crate::measure::{fnv1a, us_since};

/// A store directory held in memory; clones share the same files.
#[derive(Debug, Clone, Default)]
pub struct MemIo {
    files: Arc<Mutex<BTreeMap<PathBuf, Vec<u8>>>>,
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

impl MemIo {
    fn files(&self) -> std::sync::MutexGuard<'_, BTreeMap<PathBuf, Vec<u8>>> {
        self.files.lock().expect("no store operation panics")
    }

    /// Digest of the verdict (`viol-*`) envelopes below `root`, by path
    /// relative to it and bytes, and the size of every file.
    pub fn scan(&self, root: &Path) -> StoreScan {
        let files = self.files();
        let verdicts: Vec<(String, &Vec<u8>)> = files
            .iter()
            .filter_map(|(path, contents)| {
                let name = path.strip_prefix(root).unwrap_or(path).to_string_lossy();
                name.contains(".viol-")
                    .then(|| (name.into_owned(), contents))
            })
            .collect();
        let mut chunks: Vec<&[u8]> = Vec::new();
        for (name, contents) in &verdicts {
            chunks.push(name.as_bytes());
            chunks.push(contents);
        }
        StoreScan {
            verdict_digest: fnv1a(&chunks),
            bytes: files.values().map(|contents| contents.len() as u64).sum(),
        }
    }
}

/// What a store holds.
pub struct StoreScan {
    /// Digest over the verdict envelopes' paths and bytes.
    pub verdict_digest: String,
    /// Bytes of all files.
    pub bytes: u64,
}

impl StoreIo for MemIo {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let files = self.files();
        let contents = files.get(path).ok_or_else(|| not_found(path))?;
        String::from_utf8(contents.clone())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        self.files().insert(path.to_owned(), contents.to_vec());
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files();
        let contents = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_owned(), contents);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.files()
            .remove(path)
            .map(drop)
            .ok_or_else(|| not_found(path))
    }

    fn create_dir_all(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }
}

/// Per-operation samples, in microseconds, plus byte counts.
#[derive(Debug, Default, Clone)]
pub struct IoSamples {
    /// One sample per `write`.
    pub write_us: Vec<f64>,
    /// One sample per `rename` (one per published envelope).
    pub rename_us: Vec<f64>,
    /// One sample per `read_to_string`.
    pub read_us: Vec<f64>,
    /// Bytes passed to `write`.
    pub bytes_written: u64,
}

/// A [`MemIo`] with every load/save operation timed, which separates a
/// `save_*` call's I/O from its encoding: the codec share is the save time
/// minus the write and rename time it caused.
#[derive(Debug, Clone)]
pub struct TimingIo {
    inner: MemIo,
    samples: Arc<Mutex<IoSamples>>,
}

impl TimingIo {
    /// Time the operations on `inner`.
    pub fn new(inner: MemIo) -> TimingIo {
        TimingIo {
            inner,
            samples: Arc::default(),
        }
    }

    /// The samples taken so far.
    pub fn samples(&self) -> IoSamples {
        self.samples.lock().expect("no sampler panics").clone()
    }

    fn record(&self, update: impl FnOnce(&mut IoSamples)) {
        update(&mut self.samples.lock().expect("no sampler panics"));
    }
}

impl StoreIo for TimingIo {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let start = Instant::now();
        let result = self.inner.read_to_string(path);
        let us = us_since(start);
        self.record(|s| s.read_us.push(us));
        result
    }

    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.write(path, contents);
        let us = us_since(start);
        self.record(|s| {
            s.write_us.push(us);
            s.bytes_written += contents.len() as u64;
        });
        result
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.rename(from, to);
        let us = us_since(start);
        self.record(|s| s.rename_us.push(us));
        result
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_directory() {
        let io = MemIo::default();
        let (a, b) = (Path::new("s/a"), Path::new("s/b.viol-gdb.json"));
        assert_eq!(
            io.read_to_string(a).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        io.write(a, b"x").unwrap();
        io.rename(a, b).unwrap();
        assert_eq!(io.read_to_string(b).unwrap(), "x");
        assert!(io.rename(a, b).is_err());
        let scan = io.scan(Path::new("s"));
        assert_eq!(scan.bytes, 1);
        assert_eq!(scan.verdict_digest, fnv1a(&[b"b.viol-gdb.json", b"x"]));
        io.remove_file(b).unwrap();
        assert_eq!(io.scan(Path::new("s")).bytes, 0);
    }
}
