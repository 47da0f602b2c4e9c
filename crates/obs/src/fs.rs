//! Crash-atomic file writes for durable artifacts (snapshots, run
//! manifests, per-experiment reports).
//!
//! Not part of the `no-obs` front door: artifacts are written the same
//! way whether or not instrumentation is compiled in.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Writes `bytes` to `path` crash-atomically: the bytes go to a
/// temporary sibling ([`temp_path`]), which is synced and then renamed
/// over `path`, and the directory is synced so the rename is durable.
/// A crash or failed write leaves the previous file (if any) intact,
/// and a failed write removes the temporary file.
///
/// # Errors
///
/// Any I/O error creating, writing, syncing or renaming the file.
pub fn write_atomic<P: AsRef<Path>>(path: P, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = temp_path(path);
    let written = File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// The temporary sibling [`write_atomic`] writes before renaming:
/// `path` with `.tmp<pid>` appended.
pub fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(format!(".tmp{}", std::process::id()));
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("obs-atomic-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Regular files in `dir`, by name.
    fn files_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_type().unwrap().is_file())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_write_failing_before_the_rename_keeps_the_previous_file() {
        let dir = scratch_dir("create");
        let path = dir.join("report.txt");
        write_atomic(&path, b"previous").expect("first write");

        // A directory squatting on the temporary path makes the next
        // write fail before anything reaches the target.
        std::fs::create_dir(temp_path(&path)).unwrap();
        write_atomic(&path, b"replacement").expect_err("write must fail");
        assert_eq!(std::fs::read(&path).unwrap(), b"previous");
        assert_eq!(files_in(&dir), ["report.txt"]);

        std::fs::remove_dir(temp_path(&path)).unwrap();
        write_atomic(&path, b"replacement").expect("second write");
        assert_eq!(std::fs::read(&path).unwrap(), b"replacement");
        assert_eq!(files_in(&dir), ["report.txt"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_rename_removes_the_temporary_file() {
        let dir = scratch_dir("rename");
        // A non-empty directory at the target refuses the rename after
        // the temporary file is fully written.
        let path = dir.join("target");
        std::fs::create_dir(&path).unwrap();
        std::fs::write(path.join("keep"), b"x").unwrap();
        write_atomic(&path, b"bytes").expect_err("rename must fail");
        assert!(!temp_path(&path).exists(), "temporary file removed");
        assert_eq!(std::fs::read(path.join("keep")).unwrap(), b"x");
        std::fs::remove_dir_all(&dir).ok();
    }
}
