//! Bucket URLs: naming intermediate data wherever it lives.
//!
//! "the writer opens and writes a file and then sends the master the
//! corresponding URL, which is used for any future reads" (§IV-B). A
//! [`BucketUrl`] is that name: `file://` for shared-filesystem data,
//! `mem://` for the in-memory shared store, and `http://host:port/path`
//! for direct slave-to-slave transfer via the data server. A bucket with
//! no records has no location at all: it is named `empty:`, nothing
//! stores or serves it, and reading it needs no I/O.

use mrs_core::{Error, Result};

/// The string form of [`BucketUrl::Empty`].
pub const EMPTY: &str = "empty:";

/// A parsed bucket URL.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum BucketUrl {
    /// Data in a store mounted by all nodes, named by store-relative path.
    File(String),
    /// Data in the shared in-memory filesystem.
    Mem(String),
    /// Data served by a peer's HTTP data server.
    Http {
        /// `host:port` of the serving peer.
        authority: String,
        /// Absolute path component (starts with `/`).
        path: String,
    },
    /// A bucket with no records, stored nowhere.
    Empty,
}

impl BucketUrl {
    /// Parse from string form.
    pub fn parse(s: &str) -> Result<BucketUrl> {
        if s == EMPTY {
            return Ok(BucketUrl::Empty);
        }
        if let Some(rest) = s.strip_prefix("file://") {
            if rest.is_empty() {
                return Err(Error::Url("empty file path".into()));
            }
            return Ok(BucketUrl::File(rest.to_owned()));
        }
        if let Some(rest) = s.strip_prefix("mem://") {
            if rest.is_empty() {
                return Err(Error::Url("empty mem path".into()));
            }
            return Ok(BucketUrl::Mem(rest.to_owned()));
        }
        if let Some(rest) = s.strip_prefix("http://") {
            let (authority, path) = rest
                .split_once('/')
                .ok_or_else(|| Error::Url(format!("http url missing path: {s}")))?;
            if authority.is_empty() {
                return Err(Error::Url(format!("http url missing authority: {s}")));
            }
            return Ok(BucketUrl::Http {
                authority: authority.to_owned(),
                path: format!("/{path}"),
            });
        }
        Err(Error::Url(format!("unsupported scheme: {s}")))
    }

    /// Render to string form (inverse of [`BucketUrl::parse`]).
    pub fn to_url_string(&self) -> String {
        match self {
            BucketUrl::File(p) => format!("file://{p}"),
            BucketUrl::Mem(p) => format!("mem://{p}"),
            BucketUrl::Http { authority, path } => format!("http://{authority}{path}"),
            BucketUrl::Empty => EMPTY.to_owned(),
        }
    }
}

impl std::fmt::Display for BucketUrl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_url_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_file() {
        assert_eq!(
            BucketUrl::parse("file://op0/b1.mrsb").unwrap(),
            BucketUrl::File("op0/b1.mrsb".into())
        );
    }

    #[test]
    fn parse_mem() {
        assert_eq!(BucketUrl::parse("mem://x/y").unwrap(), BucketUrl::Mem("x/y".into()));
    }

    #[test]
    fn parse_http() {
        let u = BucketUrl::parse("http://10.0.0.1:8080/data/b0").unwrap();
        assert_eq!(
            u,
            BucketUrl::Http { authority: "10.0.0.1:8080".into(), path: "/data/b0".into() }
        );
    }

    #[test]
    fn roundtrip_display() {
        for s in ["file://a/b", "mem://q", "http://h:1/p/q", "empty:"] {
            assert_eq!(BucketUrl::parse(s).unwrap().to_url_string(), s);
        }
    }

    #[test]
    fn parse_empty() {
        assert_eq!(BucketUrl::parse(EMPTY).unwrap(), BucketUrl::Empty);
    }

    #[test]
    fn rejects_malformed() {
        for s in
            ["", "ftp://x", "file://", "mem://", "http://", "http://hostonly", "empty:x", "empty"]
        {
            assert!(BucketUrl::parse(s).is_err(), "{s} should fail");
        }
    }
}
