//! Durable report output.
//!
//! The repo commits several machine-generated reports (`AUDIT_report.json`,
//! `SYM_report.json`, `TRACE_report.json`) that CI diffs against regenerated
//! copies. A half-written file from an interrupted run would make those gates
//! lie, so every writer goes through [`write_atomic`]: write to a temporary
//! sibling, `fsync`, then rename over the destination. On POSIX the rename is
//! atomic, so readers (and `git diff`) only ever observe the old or the new
//! contents.
//!
//! The reports are hand-built JSON (no serializer dependency, stable field
//! order); [`json_escape`] is the one string escaper they share.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// Writes `contents` to `path` atomically: a `.tmp` sibling in the same
/// directory (same filesystem, so the rename cannot degrade to a copy) is
/// written, flushed, fsynced, and renamed over the destination.
pub fn write_atomic<P: AsRef<Path>, C: AsRef<[u8]>>(path: P, contents: C) -> io::Result<()> {
    let path = path.as_ref();
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);

    let mut f = File::create(&tmp)?;
    f.write_all(contents.as_ref())?;
    f.flush()?;
    f.sync_all()?;
    drop(f);

    std::fs::rename(&tmp, path).inspect_err(|_| {
        // Leave no stray temp file behind on a failed rename.
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Escapes `s` for use inside a JSON string literal: quote, backslash and
/// newline get their short escapes, other control characters `\u00XX`;
/// everything else (non-ASCII included) passes through unchanged.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pcm-fsio-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir.join(name)
    }

    #[test]
    fn writes_and_replaces() {
        let p = scratch("report.json");
        write_atomic(&p, "v1").expect("first write");
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "v1");
        write_atomic(&p, "v2").expect("overwrite");
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "v2");
        assert!(
            !p.with_file_name("report.json.tmp").exists(),
            "temp file must not survive"
        );
    }

    #[test]
    fn rejects_pathless_destination() {
        assert!(write_atomic(Path::new("/"), "x").is_err());
    }

    #[test]
    fn json_string_keeps_unicode_and_escapes_controls() {
        assert_eq!(json_escape(r#"say "hi""#), r#"say \"hi\""#);
        assert_eq!(json_escape(r"a\b"), r"a\\b");
        assert_eq!(json_escape("one\ntwo"), r"one\ntwo");
        assert_eq!(json_escape("\u{1}"), r"\u0001");
        assert_eq!(json_escape("µs → ρ"), "µs → ρ");
    }
}
