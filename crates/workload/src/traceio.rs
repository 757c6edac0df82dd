//! Trace (de)serialization.
//!
//! JSON is the interchange format: traces are small (≤ a few thousand
//! jobs), and human-inspectable fixtures beat opaque binaries for a
//! research artifact.

use std::fs;
use std::io;
use std::path::Path;
use tf_simcore::Trace;

/// Write a trace as pretty-printed JSON.
pub fn save_trace<P: AsRef<Path>>(trace: &Trace, path: P) -> io::Result<()> {
    let json = serde_json::to_string_pretty(trace).map_err(io::Error::other)?;
    fs::write(path, json)
}

/// Read a trace back from JSON.
pub fn load_trace<P: AsRef<Path>>(path: P) -> io::Result<Trace> {
    let json = fs::read_to_string(path)?;
    serde_json::from_str(&json).map_err(io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tf-workload-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn trace_roundtrip() {
        let t = Trace::from_pairs([(0.0, 1.0), (2.5, 3.25)]).unwrap();
        let path = tmp("trace.json");
        save_trace(&t, &path).unwrap();
        let back = load_trace(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load_trace("/nonexistent/definitely/missing.json").is_err());
    }

    #[test]
    fn load_garbage_errors() {
        let path = tmp("garbage.json");
        std::fs::write(&path, "not json at all").unwrap();
        assert!(load_trace(&path).is_err());
        std::fs::remove_file(path).ok();
    }
}
