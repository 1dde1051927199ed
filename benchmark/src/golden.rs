//! Pinned expected outputs under `golden/`.
//!
//! An output below [`FULL_TEXT_LIMIT`] is committed in full as
//! `<name>.golden`; a larger one is pinned by its FNV-1a-64 digest and byte
//! length in `<name>.digest`.  Files are only ever written by
//! [`Goldens::bless`], which the harness reaches through an explicit
//! `--bless` and never on a mismatch.

use std::io;
use std::path::PathBuf;

use crate::digest::fnv1a64;

/// Outputs at or above this many bytes are pinned by digest, not in full.
pub const FULL_TEXT_LIMIT: usize = 64 * 1024;

/// A directory of goldens.
#[derive(Debug, Clone)]
pub struct Goldens {
    dir: PathBuf,
}

impl Goldens {
    /// The goldens in `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Goldens { dir: dir.into() }
    }

    fn text_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.golden"))
    }

    fn digest_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.digest"))
    }

    /// Compare `output` byte for byte against the golden called `name`;
    /// `Err` says what differs (or that the golden is missing or
    /// unreadable) and is a failed operation for the caller, never a panic.
    pub fn check(&self, name: &str, output: &[u8]) -> Result<(), String> {
        if let Ok(expected) = std::fs::read(self.text_path(name)) {
            if expected == output {
                return Ok(());
            }
            let at = expected
                .iter()
                .zip(output)
                .position(|(a, b)| a != b)
                .unwrap_or(expected.len().min(output.len()));
            return Err(format!(
                "{name}: output differs from its golden at byte {at} \
                 ({} bytes expected, {} produced)",
                expected.len(),
                output.len()
            ));
        }
        let pinned = std::fs::read_to_string(self.digest_path(name))
            .map_err(|e| format!("{name}: no readable golden in {}: {e}", self.dir.display()))?;
        let (digest, bytes) =
            parse_digest(&pinned).ok_or_else(|| format!("{name}: malformed digest file"))?;
        if (digest, bytes) == (fnv1a64(output), output.len()) {
            Ok(())
        } else {
            Err(format!(
                "{name}: output digest {:016x} over {} bytes, golden pins {digest:016x} over \
                 {bytes} bytes",
                fnv1a64(output),
                output.len()
            ))
        }
    }

    /// Pin `output` as the golden called `name`, replacing whatever was
    /// pinned before.  Returns the file written.
    pub fn bless(&self, name: &str, output: &[u8]) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let (path, stale, body) = if output.len() < FULL_TEXT_LIMIT {
            (
                self.text_path(name),
                self.digest_path(name),
                output.to_vec(),
            )
        } else {
            let pin = format!("fnv1a64={:016x} bytes={}\n", fnv1a64(output), output.len());
            (
                self.digest_path(name),
                self.text_path(name),
                pin.into_bytes(),
            )
        };
        std::fs::write(&path, body)?;
        match std::fs::remove_file(stale) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(path),
        }
    }
}

fn parse_digest(text: &str) -> Option<(u64, usize)> {
    let mut words = text.split_whitespace();
    let digest = u64::from_str_radix(words.next()?.strip_prefix("fnv1a64=")?, 16).ok()?;
    let bytes = words.next()?.strip_prefix("bytes=")?.parse().ok()?;
    Some((digest, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> Goldens {
        let dir = std::env::temp_dir().join(format!("ispn-golden-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Goldens::new(dir)
    }

    #[test]
    fn small_outputs_are_pinned_in_full_and_large_ones_by_digest() {
        let g = scratch("size");
        assert!(g.check("w", b"x").is_err(), "nothing pinned yet");
        let small = g.bless("w", b"hello\n").unwrap();
        assert!(small.ends_with("w.golden"));
        assert!(g.check("w", b"hello\n").is_ok());
        let err = g.check("w", b"help!\n").unwrap_err();
        assert!(err.contains("byte 3"), "{err}");

        let big = vec![b'a'; FULL_TEXT_LIMIT];
        let pinned = g.bless("w", &big).unwrap();
        assert!(pinned.ends_with("w.digest"));
        assert!(!small.exists(), "the full-text golden was replaced");
        assert!(g.check("w", &big).is_ok());
        let mut other = big.clone();
        other[17] = b'b';
        assert!(g.check("w", &other).unwrap_err().contains("digest"));
    }

    #[test]
    fn a_corrupted_digest_file_is_an_error_not_a_panic() {
        let g = scratch("corrupt");
        let big = vec![b'a'; FULL_TEXT_LIMIT];
        let path = g.bless("w", &big).unwrap();
        std::fs::write(&path, "fnv1a64=zz bytes=many\n").unwrap();
        assert!(g.check("w", &big).unwrap_err().contains("malformed"));
    }
}
