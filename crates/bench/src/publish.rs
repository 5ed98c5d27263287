//! Publishing benchmark artifacts to the repository root.
//!
//! The experiment binaries write their JSON under `target/experiments/`
//! (gitignored scratch). The `baselines` quality table,
//! `BENCH_baselines.json`, is additionally copied to the repo root so its
//! history rides along with the code.
//! Copies go through `dc_matrix::atomic::atomic_write` (temp + fsync + rename): a
//! crashed bench never leaves a torn file in the tree.

use std::path::{Path, PathBuf};

/// The repository root, resolved at compile time relative to this crate.
pub fn repo_root() -> PathBuf {
    // crates/bench → crates → repo root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Copies `artifact` (a JSON file an experiment just wrote) into the repo
/// root under its own file name, atomically. Returns the destination path.
pub fn publish_to_repo_root(artifact: &Path) -> std::io::Result<PathBuf> {
    let name = artifact.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{} has no file name", artifact.display()),
        )
    })?;
    let bytes = std::fs::read(artifact)?;
    let dest = repo_root().join(name);
    dc_matrix::atomic::atomic_write(&dest, &bytes)?;
    Ok(dest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_root_holds_the_workspace_manifest() {
        let manifest = std::fs::read_to_string(repo_root().join("Cargo.toml")).unwrap();
        assert!(manifest.contains("[workspace]"), "not the workspace root");
    }

    #[test]
    fn publish_is_an_atomic_byte_copy() {
        let dir = std::env::temp_dir().join("dc-bench-publish-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("PUBLISH_selftest.json");
        std::fs::write(&src, b"{\"ok\": true}").unwrap();
        let dest = publish_to_repo_root(&src).unwrap();
        assert_eq!(std::fs::read(&dest).unwrap(), b"{\"ok\": true}");
        std::fs::remove_file(&dest).unwrap(); // keep the tree clean
    }

    #[test]
    fn missing_source_is_an_error_not_a_panic() {
        assert!(publish_to_repo_root(Path::new("/no/such/file.json")).is_err());
    }
}
