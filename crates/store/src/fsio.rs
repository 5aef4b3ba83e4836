//! Crash-safe filesystem primitives: temp-file + atomic-rename writes.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique-per-call temp sibling of `path` (two threads persisting the same
/// target must not interleave writes into one temp file).
fn sibling_tmp(path: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    path.with_file_name(format!(
        ".{name}.{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Flushes the directory entry containing `path` (best effort: on platforms
/// where directories cannot be opened for syncing this is a no-op).
pub(crate) fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

/// Writes `bytes` to `path` atomically: the content goes to a unique sibling
/// temp file which is renamed over the target, so a reader (or a recovery
/// pass after SIGKILL) sees either the old content or the complete new
/// content — never a torn prefix. With `fsync` the file data is flushed
/// before the rename and the directory entry after it.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8], fsync: bool) -> io::Result<()> {
    write_atomic_with(path, fsync, |file| file.write_all(bytes))
}

/// [`write_atomic`] with the content streamed by `fill` through a buffered
/// writer, so a large file is never assembled in memory first.
pub(crate) fn write_atomic_with(
    path: &Path,
    fsync: bool,
    fill: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = sibling_tmp(path);
    let write = (|| {
        let mut file = BufWriter::new(File::create(&tmp)?);
        fill(&mut file)?;
        let file = file.into_inner().map_err(io::IntoInnerError::into_error)?;
        if fsync {
            file.sync_all()?;
        }
        fs::rename(&tmp, path)
    })();
    if write.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    write?;
    if fsync {
        sync_parent_dir(path);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_replaces_content_and_cleans_temp_files() {
        let dir = crate::test_dir("fsio");
        let path = dir.join("target.txt");
        write_atomic(&path, b"first", true).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second", false).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
