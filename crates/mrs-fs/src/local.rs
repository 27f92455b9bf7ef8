//! Directory-rooted store on the real filesystem.

use crate::store::{check_path, Store};
use mrs_core::{Error, Result};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`Store`] rooted at a directory of the host filesystem.
#[derive(Debug, Clone)]
pub struct LocalFs {
    root: PathBuf,
}

impl LocalFs {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(LocalFs { root })
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn full(&self, path: &str) -> Result<PathBuf> {
        Ok(self.root.join(check_path(path)?))
    }
}

impl Store for LocalFs {
    fn put(&self, path: &str, data: &[u8]) -> Result<()> {
        let full = self.full(path)?;
        // Write-then-rename so concurrent readers never observe a torn file.
        let tmp = full.with_extension("tmp~");
        let write = || {
            if let Some(parent) = full.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(&tmp, data)?;
            std::fs::rename(&tmp, &full)
        };
        // A delete of the directory's last other file may prune it between
        // its creation and the write; then it is created once more.
        match write() {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => write()?,
            done => done?,
        }
        Ok(())
    }

    fn get(&self, path: &str) -> Result<Vec<u8>> {
        Ok(std::fs::read(self.full(path)?)?)
    }

    fn exists(&self, path: &str) -> bool {
        self.full(path).map(|p| p.is_file()).unwrap_or(false)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        let base = if prefix.is_empty() { self.root.clone() } else { self.full(prefix)? };
        let mut out = Vec::new();
        if base.is_dir() {
            walk(&base, &self.root, &mut out)?;
        }
        // Paths are distinct, so the unstable sort is order-preserving.
        out.sort_unstable();
        Ok(out)
    }

    /// Remove the file, then every directory that leaves empty, up to but
    /// not including the root.
    fn delete(&self, path: &str) -> Result<()> {
        let full = self.full(path)?;
        match std::fs::remove_file(&full) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        // `remove_dir` refuses a directory that still holds anything.
        let mut dir = full.parent();
        while let Some(d) = dir.filter(|d| *d != self.root) {
            if std::fs::remove_dir(d).is_err() {
                break;
            }
            dir = d.parent();
        }
        Ok(())
    }
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let p = entry.path();
        if p.is_dir() {
            walk(&p, root, out)?;
        } else {
            let rel = p
                .strip_prefix(root)
                .map_err(|_| Error::Url(format!("path escape: {}", p.display())))?;
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A [`LocalFs`] in a unique scratch directory, removed on drop — the
/// "small short-lived files … served and removed without ever being
/// flushed" pattern of §IV-B.
#[derive(Debug)]
pub struct TempFs {
    fs: LocalFs,
}

impl TempFs {
    /// Create a fresh scratch store under the system temp directory.
    pub fn new(tag: &str) -> Result<Self> {
        let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mrs-{tag}-{}-{n}", std::process::id()));
        Ok(TempFs { fs: LocalFs::new(dir)? })
    }

    /// Borrow the underlying store.
    pub fn fs(&self) -> &LocalFs {
        &self.fs
    }
}

impl Drop for TempFs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.fs.root());
    }
}

impl Store for TempFs {
    fn put(&self, path: &str, data: &[u8]) -> Result<()> {
        self.fs.put(path, data)
    }
    fn get(&self, path: &str) -> Result<Vec<u8>> {
        self.fs.get(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.fs.exists(path)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.fs.list(prefix)
    }
    fn delete(&self, path: &str) -> Result<()> {
        self.fs.delete(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let t = TempFs::new("t1").unwrap();
        t.put("a/b/c.dat", b"hello").unwrap();
        assert_eq!(t.get("a/b/c.dat").unwrap(), b"hello");
        assert!(t.exists("a/b/c.dat"));
        assert!(!t.exists("a/b/d.dat"));
    }

    #[test]
    fn put_overwrites() {
        let t = TempFs::new("t2").unwrap();
        t.put("x", b"one").unwrap();
        t.put("x", b"two").unwrap();
        assert_eq!(t.get("x").unwrap(), b"two");
    }

    #[test]
    fn list_is_recursive_and_sorted() {
        let t = TempFs::new("t3").unwrap();
        t.put("b/2", b"").unwrap();
        t.put("a/1", b"").unwrap();
        t.put("a/sub/3", b"").unwrap();
        assert_eq!(t.list("").unwrap(), vec!["a/1", "a/sub/3", "b/2"]);
        assert_eq!(t.list("a").unwrap(), vec!["a/1", "a/sub/3"]);
    }

    #[test]
    fn delete_is_idempotent() {
        let t = TempFs::new("t4").unwrap();
        t.put("x", b"1").unwrap();
        t.delete("x").unwrap();
        t.delete("x").unwrap();
        assert!(!t.exists("x"));
    }

    #[test]
    fn deleting_the_last_file_prunes_its_emptied_directories() {
        let t = TempFs::new("t8").unwrap();
        t.put("s0/d1/t0/b0", b"x").unwrap();
        t.put("s0/d1/t0/b1", b"x").unwrap();
        t.put("s0/d2/t0/b0", b"x").unwrap();
        let root = t.fs().root().to_path_buf();
        t.delete("s0/d1/t0/b0").unwrap();
        assert!(root.join("s0/d1/t0").is_dir(), "a directory still holding a file stays");
        t.delete("s0/d1/t0/b1").unwrap();
        assert!(!root.join("s0/d1").exists(), "the emptied t0 and d1 go");
        assert!(root.join("s0/d2/t0/b0").is_file(), "a non-empty sibling stays");
        t.delete("s0/d2/t0/b0").unwrap();
        assert!(!root.join("s0").exists());
        assert!(root.is_dir(), "the root stays");
        t.put("s0/d1/t0/b0", b"y").unwrap();
        assert_eq!(t.get("s0/d1/t0/b0").unwrap(), b"y");
    }

    #[test]
    fn get_missing_is_error() {
        let t = TempFs::new("t5").unwrap();
        assert!(t.get("missing").is_err());
    }

    #[test]
    fn rejects_path_escape() {
        let t = TempFs::new("t6").unwrap();
        assert!(t.put("../evil", b"x").is_err());
        assert!(t.get("/etc/passwd").is_err());
    }

    #[test]
    fn tempfs_cleans_up_on_drop() {
        let root;
        {
            let t = TempFs::new("t7").unwrap();
            t.put("f", b"data").unwrap();
            root = t.fs().root().to_path_buf();
            assert!(root.exists());
        }
        assert!(!root.exists());
    }
}
