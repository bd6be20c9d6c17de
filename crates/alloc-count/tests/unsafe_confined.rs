//! `unsafe` stays in one place, this crate's counting allocator: no
//! other Rust file under `crates/`, `tests/`, `src/` or `examples/` may
//! hold the token outside a comment line.

use std::fs;
use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten() {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() && !path.ends_with("target") {
            rust_files(&path, out);
        } else if path.extension() == Some("rs".as_ref()) {
            out.push(path);
        }
    }
}

/// Whether `line` holds `unsafe` as a whole token, not inside a longer
/// identifier such as `unsafe_code`.
fn has_unsafe_token(line: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices("unsafe")
        .any(|(at, w)| !line[..at].ends_with(ident) && !line[at + w.len()..].starts_with(ident))
}

#[test]
fn unsafe_appears_only_in_alloc_count() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in ["crates", "tests", "src", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files
        .iter()
        .any(|f| f.ends_with("crates/encore/src/lib.rs")));
    let mut hits = Vec::new();
    for file in files
        .iter()
        .filter(|f| !f.starts_with(root.join("crates/alloc-count")))
    {
        let text = fs::read_to_string(file).expect("readable source file");
        for (n, line) in text.lines().enumerate() {
            let code = line.trim_start();
            if !code.starts_with("//") && has_unsafe_token(code) {
                let name = file.strip_prefix(&root).unwrap_or(file).display();
                hits.push(format!("{name}:{}: {code}", n + 1));
            }
        }
    }
    let hits = hits.join("\n");
    assert!(
        hits.is_empty(),
        "`unsafe` outside crates/alloc-count:\n{hits}"
    );
}
