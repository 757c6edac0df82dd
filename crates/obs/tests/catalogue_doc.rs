//! `docs/OBSERVABILITY.md` is the catalogue of every probe the workspace
//! emits; this test keeps it complete. It scans `crates/*/src/**/*.rs`
//! for `span!`/`instant!`/`counter!` calls whose category and name are
//! both string literals, skipping comments and `#[cfg(test)]` items, and
//! requires each `category.name` to appear (backticked, as a code span)
//! in the page. Adding a probe without documenting it fails the build.
//! The check also runs the other way: every backticked `category.name`
//! in the first column of the page's three catalogue tables must be
//! emitted by that production code, so a row cannot outlive its probe.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot list {dir:?}: {e}"));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `src` without comment lines and without the item each `#[cfg(test)]`
/// applies to.
fn production_code(src: &str) -> String {
    let code: String = src
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .flat_map(|l| [l, "\n"])
        .collect();
    let mut out = String::new();
    let mut rest = code.as_str();
    while let Some(at) = rest.find("#[cfg(test)]") {
        out.push_str(&rest[..at]);
        rest = after_item(&rest[at..]);
    }
    out.push_str(rest);
    out
}

/// What follows the item starting at `s`: everything after its first
/// top-level `;`, or after its braced body, whichever closes it first.
/// String, raw-string and char literals are stepped over whole, so braces
/// inside them do not count.
fn after_item(s: &str) -> &str {
    let b = s.as_bytes();
    let mut depth = 0usize;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
            }
            b'r' if i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') => {
                // A raw string `r#*"…"#*` ends at a quote and as many hashes.
                let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
                if b.get(i + 1 + hashes) == Some(&b'"') {
                    let close = format!("\"{}", "#".repeat(hashes));
                    let body = i + 2 + hashes;
                    i = s[body..]
                        .find(&close)
                        .map_or(b.len(), |at| body + at + hashes);
                }
            }
            b'\'' if b.get(i + 1) == Some(&b'\\') => {
                i += 3;
                while i < b.len() && b[i] != b'\'' {
                    i += 1;
                }
            }
            b'\'' if b.get(i + 2) == Some(&b'\'') => i += 2,
            b';' if depth == 0 => return &s[i + 1..],
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return &s[i + 1..];
                }
            }
            _ => {}
        }
        i += 1;
    }
    ""
}

/// A string literal at the start of `s` (after whitespace) and the rest.
fn literal(s: &str) -> Option<(&str, &str)> {
    let s = s.trim_start().strip_prefix('"')?;
    let end = s.find('"')?;
    Some((&s[..end], &s[end + 1..]))
}

/// Every `category.name` probed with two string literals in `code`.
fn probes(code: &str, out: &mut BTreeSet<String>) {
    for mac in ["span!(", "instant!(", "counter!("] {
        let mut rest = code;
        while let Some(at) = rest.find(mac) {
            rest = &rest[at + mac.len()..];
            let Some((cat, tail)) = literal(rest) else {
                continue;
            };
            let Some(tail) = tail.trim_start().strip_prefix(',') else {
                continue;
            };
            if let Some((name, _)) = literal(tail) {
                out.insert(format!("{cat}.{name}"));
            }
        }
    }
}

/// Every backticked name in the first column of the tables under the
/// `## Span catalogue` heading, except in the row whose spans are named
/// at run time from the experiment id (`harness.e1` … `harness.e22`).
fn catalogued(doc: &str) -> BTreeSet<String> {
    let section = doc
        .split("\n## ")
        .find(|s| s.starts_with("Span catalogue"))
        .expect("docs/OBSERVABILITY.md has a `## Span catalogue` section");
    let mut out = BTreeSet::new();
    for row in section.lines().filter(|l| l.starts_with('|')) {
        let first = row.split('|').nth(1).unwrap_or("");
        if first.contains("`harness.e1`") {
            continue;
        }
        out.extend(first.split('`').skip(1).step_by(2).map(str::to_owned));
    }
    out
}

#[test]
fn observability_doc_names_every_probe() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let doc_path = root.join("docs/OBSERVABILITY.md");
    let doc =
        fs::read_to_string(&doc_path).unwrap_or_else(|e| panic!("cannot read {doc_path:?}: {e}"));

    let mut files = Vec::new();
    let crates = fs::read_dir(root.join("crates")).expect("list crates/");
    for krate in crates {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut found = BTreeSet::new();
    for f in &files {
        let src = fs::read_to_string(f).unwrap_or_else(|e| panic!("cannot read {f:?}: {e}"));
        let code = production_code(&src);
        assert!(
            !code.contains("#[test]"),
            "{f:?}: test code outside #[cfg(test)] items"
        );
        probes(&code, &mut found);
    }

    // The scan itself works: the engine's spans and counters are found,
    // and probes that exist only in test code are not.
    for pin in [
        "sim.simulate",
        "sim.stream",
        "sim.events",
        "sim.stream_events",
    ] {
        assert!(found.contains(pin), "scan missed {pin}: {found:?}");
    }
    assert!(
        !found.contains("tabletest.stage_a"),
        "scan read #[cfg(test)] code"
    );

    let missing: Vec<&String> = found
        .iter()
        .filter(|p| !doc.contains(&format!("`{p}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "docs/OBSERVABILITY.md is missing {} of {} probes (document each as a \
         backticked `category.name`): {missing:?}",
        missing.len(),
        found.len()
    );

    let documented = catalogued(&doc);
    assert!(
        documented.contains("sim.simulate") && documented.contains("shard.respawn"),
        "table scan missed rows: {documented:?}"
    );
    let stale: Vec<&String> = documented.difference(&found).collect();
    assert!(
        stale.is_empty(),
        "docs/OBSERVABILITY.md catalogues {} probe(s) no production code emits \
         (delete the row or restore the probe): {stale:?}",
        stale.len()
    );
}
