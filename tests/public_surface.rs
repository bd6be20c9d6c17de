//! The public surface is what production calls.
//!
//! Every `pub` item in `crates/*/src`, outside its file's trailing
//! `#[cfg(test)] mod`, must be named on a production line other than its
//! definition line. A type or constant is named by a whole word. A
//! function is named only where it is reached: called (`name(`,
//! `name::<`), written as a path (`::name`) or inside a `#[serde(..)]`
//! attribute. A bare word — a field, a local, an entry of a `use` list,
//! a function passed by name as a value — does not reach a function, and
//! neither does another `fn name(` definition. A method — a function
//! taking `self` — is reached only as one: called on a value (`.name(`,
//! `.name::<`) or written after a type (`Type::name`, `Self::name`); a
//! module path (`crate::name`) or a free call (`name(`) does not reach
//! it. A type's own `impl T` and `impl Trait for T` headers do not name
//! it.
//!
//! Production lines are the lines above the test module in
//! `crates/*/src`, `src/`, `examples/` and `benchmark/src`; `tests/`
//! directories, `benchmark/tests` and test modules only exercise what
//! production already reaches. Two surfaces exist for tests and are
//! exempt: `bench::testkit` (`crates/bench/src/testkit.rs`), the fixtures
//! the root tests share, and `crates/alloc-count`, the counting allocator
//! behind the allocation bounds. Their lines are not production, and their
//! items need only be named (a function: reached) somewhere other than
//! their definition and their own file's tests. A `pub mod` is judged by
//! its items. Every root re-export (`pub use` at the top of a `lib.rs`)
//! must be written through its crate root outside that `lib.rs`. Comment
//! lines name nothing.
//!
//! The scan is by word, not by resolved path, so it misses what shares a
//! name with something production does reach: a method whose name
//! production calls on another type (`len`, `merge`), an associated
//! function without `self` whose name production writes as a free
//! function or a module (`new(`, `country(`, `censor::policy::`), a type
//! that another item's production lines mention by word, and a `pub`
//! field, which is not an item. Code under a `#[cfg(test)]` attribute
//! above the test module also counts as production.
//!
//! `cargo test --test public_surface -- --nocapture` also prints the
//! non-test line count of `crates/*/src`: the lines above each file's
//! test module, trailing blank lines dropped, with `bench::testkit`
//! counted apart.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Items the rule would reject that stay anyway: `(file, name, reason)`.
/// May only shrink: an entry whose item gains a caller or disappears fails
/// the guard until it is removed.
const ALLOWED: &[(&str, &str, &str)] = &[];

/// One source file, by its path relative to the repo root.
struct Source {
    path: String,
    text: String,
}

impl Source {
    /// Whether `pub` items here are checked (they are in `crates/*/src`).
    fn checked(&self) -> bool {
        self.path.starts_with("crates/") && self.path.split('/').nth(2) == Some("src")
    }

    /// Whether this is `bench::testkit`, the fixtures tests share.
    fn testkit(&self) -> bool {
        self.path == "crates/bench/src/testkit.rs"
    }

    /// Whether this surface exists for tests: the testkit, or
    /// `alloc-count`, the allocator the allocation bounds count with.
    fn exempt(&self) -> bool {
        self.testkit() || self.path.starts_with("crates/alloc-count/")
    }

    /// Whether its lines above the test module are production code.
    fn production(&self) -> bool {
        (self.checked() && !self.exempt())
            || ["src/", "examples/", "benchmark/src/"]
                .iter()
                .any(|dir| self.path.starts_with(dir))
    }
}

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

fn sources() -> Vec<Source> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in [
        "crates",
        "tests",
        "src",
        "examples",
        "benchmark/src",
        "benchmark/tests",
    ] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    files
        .iter()
        .map(|f| Source {
            path: f.strip_prefix(root).unwrap_or(f).display().to_string(),
            text: fs::read_to_string(f).expect("readable source file"),
        })
        .collect()
}

/// The 0-based line of the file's test module attribute, if it has one.
fn test_module_start(lines: &[&str]) -> Option<usize> {
    lines.windows(2).position(|w| {
        w[0] == "#[cfg(test)]" && (w[1].starts_with("mod ") || w[1].starts_with("pub(crate) mod "))
    })
}

/// Lines above the test module, trailing blank lines dropped.
fn non_test_lines(text: &str) -> usize {
    let lines: Vec<&str> = text.lines().collect();
    let end = test_module_start(&lines).unwrap_or(lines.len());
    lines[..end]
        .iter()
        .rposition(|l| !l.trim().is_empty())
        .map_or(0, |last| last + 1)
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !is_ident(c)).filter(|w| !w.is_empty())
}

/// The type an `impl T` / `impl Trait for T` header implements for.
fn impl_self_type(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("impl")?;
    let rest = match rest.strip_prefix('<') {
        Some(generics) => {
            let mut depth = 1;
            let end = generics.find(|c| {
                depth += match c {
                    '<' => 1,
                    '>' => -1,
                    _ => 0,
                };
                depth == 0
            })?;
            &generics[end + 1..]
        }
        None => rest.strip_prefix(' ')?,
    };
    let ty = rest.rsplit_once(" for ").map_or(rest, |(_, ty)| ty);
    words(ty.split(['<', '{']).next()?).last()
}

/// Each word a line writes, with whether it reaches a function there —
/// called (`name(`, `name::<`), written as a path (`::name`) or inside a
/// serde attribute, not defined (`fn name(`) — and whether it reaches a
/// method: called on a value (`.name(`, `.name::<`) or written after a
/// type (`Type::name`). A type's own `impl` header does not write its
/// name.
fn word_uses(line: &str) -> Vec<(&str, bool, bool)> {
    let serde = line.trim_start().starts_with("#[serde(");
    let own = impl_self_type(line);
    let mut out = Vec::new();
    let mut prev = "";
    let mut at = 0;
    for w in words(line) {
        let start = at + line[at..].find(w).expect("the word is on its line");
        at = start + w.len();
        let (before, after) = (&line[..start], &line[at..]);
        let called = prev != "fn" && (after.starts_with('(') || after.starts_with("::<"));
        let after_type = before.strip_suffix("::").is_some_and(|path| {
            let segment = &path[path.trim_end_matches(is_ident).len()..];
            segment.starts_with(|c: char| c.is_ascii_uppercase())
        });
        let reaches = serde || called || before.ends_with("::");
        let reaches_method = (called && before.ends_with('.')) || after_type;
        prev = w;
        if Some(w) != own {
            out.push((w, reaches, reaches_method));
        }
    }
    out
}

/// Whether a function, its signature starting at `signature`, takes
/// `self` (`self`, `&self`, `&mut self` or `self: T`): some parenthesis
/// before its body opens on `self`. A free function that this misreads
/// is held to the stricter method rule, so a misread fails loudly.
fn takes_self(signature: &str) -> bool {
    let sig = signature.split(['{', ';']).next().unwrap_or("");
    let sig: String = sig.split_whitespace().collect();
    sig.match_indices('(').any(|(at, _)| {
        let param = sig[at + 1..].trim_start_matches('&');
        let param = param.strip_prefix("mut").unwrap_or(param);
        param
            .strip_prefix("self")
            .is_some_and(|rest| !rest.starts_with(is_ident))
    })
}

fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// The name a `pub` item line declares and whether it is a function:
/// `pub fn f`, `pub const fn f`, `pub struct S`; `pub(crate)`, `pub use`
/// and `pub mod` excluded.
fn pub_item(line: &str) -> Option<(&str, bool)> {
    let mut w = words(line.trim_start().strip_prefix("pub ")?);
    match w.next()? {
        "fn" => Some((w.next()?, true)),
        "struct" | "enum" | "trait" | "type" | "static" => Some((w.next()?, false)),
        "const" => match w.next()? {
            "fn" => Some((w.next()?, true)),
            name => Some((name, false)),
        },
        _ => None,
    }
}

/// Where a word is written.
struct Use {
    file: usize,
    /// 0-based.
    line: usize,
    /// In the file's test module.
    in_test: bool,
    /// On a production line.
    production: bool,
    /// Reaching a function there (`word_uses`).
    reaches: bool,
    /// Reaching a method there (`word_uses`).
    reaches_method: bool,
}

/// Every `pub` item of the checked files that no production line names
/// (an exempt item: that nothing else names), as `(path, 1-based line,
/// name)`. A function is named only where it is reached.
fn uncalled(sources: &[Source]) -> Vec<(String, usize, String)> {
    let mut seen: HashMap<&str, Vec<Use>> = HashMap::new();
    for (file, src) in sources.iter().enumerate() {
        let lines: Vec<&str> = src.text.lines().collect();
        let tests = test_module_start(&lines).unwrap_or(lines.len());
        for (line, text) in lines.iter().enumerate().filter(|(_, l)| !is_comment(l)) {
            let in_test = line >= tests;
            for (w, reaches, reaches_method) in word_uses(text) {
                seen.entry(w).or_default().push(Use {
                    file,
                    line,
                    in_test,
                    production: src.production() && !in_test,
                    reaches,
                    reaches_method,
                });
            }
        }
    }
    let mut out = Vec::new();
    for (f, src) in sources.iter().enumerate().filter(|(_, s)| s.checked()) {
        let lines: Vec<&str> = src.text.lines().collect();
        let tests = test_module_start(&lines).unwrap_or(lines.len());
        for (n, line) in lines[..tests].iter().enumerate() {
            let Some((name, function)) = pub_item(line) else {
                continue;
            };
            // A wrapped signature reaches its body within a few lines.
            let method = function && takes_self(&lines[n..tests.min(n + 8)].join(" "));
            let uses = seen.get(name).map_or(&[][..], Vec::as_slice);
            let named = uses.iter().any(|u| {
                let elsewhere = u.file != f || u.line != n;
                if (function && !u.reaches) || (method && !u.reaches_method) {
                    false
                } else if src.exempt() {
                    u.file != f || (!u.in_test && elsewhere)
                } else {
                    u.production && elsewhere
                }
            });
            if !named {
                out.push((src.path.clone(), n + 1, name.to_string()));
            }
        }
    }
    out
}

/// The root names a file writes after `root::`, directly or inside one
/// `{..}` group (first path segment of each element).
fn names_through(text: &str, root: &str, out: &mut HashSet<String>) {
    // Whitespace dropped except one space between two words.
    let mut code = String::new();
    let mut gap = false;
    for c in text
        .lines()
        .filter(|l| !is_comment(l))
        .flat_map(|l| l.chars().chain([' ']))
    {
        if c.is_whitespace() {
            gap = true;
            continue;
        }
        if gap && is_ident(c) && code.ends_with(is_ident) {
            code.push(' ');
        }
        gap = false;
        code.push(c);
    }
    let prefix = format!("{root}::");
    for (at, _) in code.match_indices(&prefix) {
        if code[..at].ends_with(is_ident) {
            continue;
        }
        let rest = &code[at + prefix.len()..];
        if let Some(group) = rest.strip_prefix('{') {
            let mut depth = 0;
            let mut start = true;
            for (i, c) in group.char_indices() {
                match c {
                    '{' => depth += 1,
                    '}' if depth == 0 => break,
                    '}' => depth -= 1,
                    ',' if depth == 0 => start = true,
                    _ if start && is_ident(c) => {
                        start = false;
                        if let Some(w) = words(&group[i..]).next() {
                            out.insert(w.to_string());
                        }
                    }
                    _ => {}
                }
            }
        } else if let Some(w) = rest.split(|c: char| !is_ident(c)).next() {
            out.insert(w.to_string());
        }
    }
}

/// The names a `lib.rs` re-exports at its top level, with their lines.
fn root_reexports(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut stmt: Option<(usize, String)> = None;
    for (n, line) in text.lines().enumerate() {
        if line.starts_with("pub use ") {
            stmt = Some((n + 1, String::new()));
        }
        if let Some((at, body)) = stmt.as_mut() {
            body.push_str(line);
            if line.contains(';') {
                let body = body.trim_start_matches("pub use ").trim_end_matches(';');
                let group = body.split_once('{').map_or(body, |(_, g)| g);
                for element in group.trim_end_matches('}').split(',') {
                    let name = element.rsplit([':', ' ']).next().unwrap_or("").trim();
                    if !name.is_empty() {
                        out.push((*at, name.to_string()));
                    }
                }
                stmt = None;
            }
        }
    }
    out
}

/// Each uncalled item the allowlist does not name, and each allowlist
/// entry whose item gained a caller or is gone.
fn failures(found: &[(String, usize, String)], allowed: &[(&str, &str, &str)]) -> Vec<String> {
    let listed = |path: &str, name: &str| allowed.iter().any(|(p, n, _)| *p == path && *n == name);
    let mut out: Vec<String> = found
        .iter()
        .filter(|(path, _, name)| !listed(path, name))
        .map(|(path, line, name)| format!("{path}:{line}: `{name}` has no production caller"))
        .collect();
    for (path, name, _) in allowed {
        if !found.iter().any(|(p, _, n)| p == path && n == name) {
            out.push(format!(
                "{path}: allowlisted `{name}` has a caller or is gone; drop its entry"
            ));
        }
    }
    out
}

#[test]
fn every_pub_item_has_a_caller() {
    let sources = sources();
    assert!(sources.iter().any(|s| s.path == "crates/encore/src/lib.rs"));
    let lines = |testkit: bool| -> usize {
        sources
            .iter()
            .filter(|s| s.checked() && s.testkit() == testkit)
            .map(|s| non_test_lines(&s.text))
            .sum()
    };
    println!(
        "non-test lines in crates/*/src: {} (bench::testkit: {})",
        lines(false),
        lines(true)
    );

    assert!(
        ALLOWED.len() <= 10,
        "the allowlist holds at most 10 entries"
    );
    let failures = failures(&uncalled(&sources), ALLOWED).join("\n");
    assert!(failures.is_empty(), "uncalled pub items:\n{failures}");
}

#[test]
fn every_root_reexport_is_written_through_its_root() {
    let sources = sources();
    let mut failures = Vec::new();
    for lib in sources
        .iter()
        .filter(|s| s.checked() && s.path.ends_with("/src/lib.rs"))
    {
        // `crates/<name>/src/`: files here reach the root as `crate::`.
        let src_dir = lib.path.trim_end_matches("lib.rs");
        let krate = src_dir["crates/".len()..src_dir.len() - "/src/".len()].replace('-', "_");
        let mut named = HashSet::new();
        for src in sources.iter().filter(|s| s.path != lib.path) {
            let root = if src.path.starts_with(src_dir) {
                "crate"
            } else {
                &krate
            };
            names_through(&src.text, root, &mut named);
            names_through(&src.text, &format!("encore_repro::{krate}"), &mut named);
        }
        for (line, name) in root_reexports(&lib.text) {
            if !named.contains(&name) {
                failures.push(format!(
                    "{}:{line}: `{name}` is never written as `{krate}::{name}`",
                    lib.path
                ));
            }
        }
    }
    let failures = failures.join("\n");
    assert!(failures.is_empty(), "unused root re-exports:\n{failures}");
}

#[test]
fn the_guard_on_a_toy_tree() {
    let src = |path: &str, text: &str| Source {
        path: path.to_string(),
        text: text.to_string(),
    };
    let sources = [
        src(
            "crates/a/src/lib.rs",
            "pub fn called() {}\npub fn self_called() {}\npub fn only_tested() {}\n\
             pub fn uncalled() {}\n// uncalled in a comment\n\
             fn body() { self_called() }\n\n#[cfg(test)]\nmod tests {\n    fn t() { super::only_tested() }\n}\n",
        ),
        src("examples/e.rs", "use a::called;\n"),
    ];
    let names: Vec<_> = uncalled(&sources)
        .into_iter()
        .map(|(_, l, n)| (l, n))
        .collect();
    assert_eq!(
        names,
        [(3, "only_tested".to_string()), (4, "uncalled".to_string())]
    );
    // The allowlist excuses what it names, and fails on an entry whose
    // item has a caller or no longer exists.
    let found = uncalled(&sources);
    let lib = "crates/a/src/lib.rs";
    assert!(failures(&found, &[(lib, "only_tested", "r"), (lib, "uncalled", "r")]).is_empty());
    let stale = failures(
        &found,
        &[
            (lib, "only_tested", "r"),
            (lib, "uncalled", "r"),
            (lib, "called", "r"),
            (lib, "gone", "r"),
        ],
    );
    assert_eq!(stale.len(), 2, "{stale:?}");
    let mut named = HashSet::new();
    names_through(
        "use a::{x::Y, Z as W};\nlet v = a::V;\n// a::C\n",
        "a",
        &mut named,
    );
    assert_eq!(named, ["x", "Z", "V"].map(String::from).into());
    assert_eq!(
        root_reexports("pub use m::{A,\n    B as C};\npub use n::D;\n    pub use e::F;\n"),
        [
            (1, "A".to_string()),
            (1, "C".to_string()),
            (3, "D".to_string())
        ]
    );
    assert_eq!(non_test_lines("a\n\n#[cfg(test)]\nmod tests {}\n"), 1);
}

#[test]
fn only_a_production_line_calls() {
    let src = |path: &str, text: &str| Source {
        path: path.to_string(),
        text: text.to_string(),
    };
    let sources = [
        src(
            "crates/a/src/lib.rs",
            "pub fn tested() {}\npub fn benched() {}\n",
        ),
        src(
            "crates/bench/src/testkit.rs",
            "pub fn kit() { a::tested() }\n",
        ),
        src(
            "tests/t.rs",
            "fn t() { a::tested(); bench::testkit::kit() }\n",
        ),
        src("benchmark/src/main.rs", "fn main() { a::benched() }\n"),
    ];
    // Named by a test and by the testkit, neither of them production.
    assert_eq!(
        uncalled(&sources),
        [("crates/a/src/lib.rs".to_string(), 1, "tested".to_string())]
    );
}

/// `(line, name)` of each uncalled item, for the self-tests.
fn uncalled_names(sources: &[Source]) -> Vec<(usize, String)> {
    uncalled(sources)
        .into_iter()
        .map(|(_, line, name)| (line, name))
        .collect()
}

#[test]
fn a_function_is_reached_only_by_a_call_or_a_path() {
    let src = |path: &str, text: &str| Source {
        path: path.to_string(),
        text: text.to_string(),
    };
    let sources = [
        src(
            "crates/a/src/lib.rs",
            "pub fn called() {}\npub fn pathed() {}\npub fn turbofished() {}\n\
             pub fn in_serde() {}\npub fn bare() {}\npub fn redefined() {}\npub struct Bare;\n",
        ),
        src(
            "crates/b/src/lib.rs",
            "fn f() { called(); let g = a::pathed; turbofished::<u8>() }\n\
             #[serde(default = \"in_serde\")]\nstruct S { bare: u8, x: Bare }\nfn redefined() {}\n",
        ),
    ];
    // A field, or another item's definition, shares the word but reaches
    // nothing; a type is still named by a word.
    assert_eq!(
        uncalled_names(&sources),
        [(5, "bare".to_string()), (6, "redefined".to_string())]
    );
}

#[test]
fn a_method_is_reached_only_through_a_value_or_a_type() {
    let src = |path: &str, text: &str| Source {
        path: path.to_string(),
        text: text.to_string(),
    };
    let sources = [
        src(
            "crates/a/src/lib.rs",
            "pub struct T;\nimpl T {\n    pub fn dotted(&self) {}\n    pub fn typed(self) {}\n\
             pub fn moduled(&mut self) {}\n    pub fn free(self: Box<Self>) {}\n\
             pub fn wrapped<F: Fn(u8) -> u8>(\n        &self,\n        f: F,\n    ) {}\n\
             pub fn assoc(x: u8) {}\n}\n",
        ),
        src(
            "crates/b/src/lib.rs",
            "fn f(t: a::T) {\n    t.dotted();\n    let g = Self::typed;\n    a::moduled::x();\n\
             free();\n    wrapped(|x| x);\n    assoc(1);\n}\n",
        ),
    ];
    // A method written as a module or a free call is not reached; an
    // associated function without `self` still is.
    let expected = [(5, "moduled"), (6, "free"), (7, "wrapped")];
    assert_eq!(
        uncalled_names(&sources),
        expected.map(|(l, n)| (l, n.into()))
    );
}

#[test]
fn a_type_is_not_named_by_its_own_impl_headers() {
    let src = |path: &str, text: &str| Source {
        path: path.to_string(),
        text: text.to_string(),
    };
    let sources = [
        src(
            "crates/a/src/lib.rs",
            "pub struct Lonely;\npub struct Used;\npub trait Shown {}\n\
             impl Lonely {\n    fn f() {}\n}\nimpl<T> Shown for Lonely {}\n\
             impl std::fmt::Debug for Lonely {}\n",
        ),
        src("crates/b/src/lib.rs", "fn g(_: a::Used) {}\n"),
    ];
    // The trait an impl header implements is named there; the type it
    // implements for is not.
    assert_eq!(uncalled_names(&sources), [(1, "Lonely".to_string())]);
}

#[test]
fn alloc_count_is_exempt_like_the_testkit() {
    let src = |path: &str, text: &str| Source {
        path: path.to_string(),
        text: text.to_string(),
    };
    let sources = [
        src(
            "crates/alloc-count/src/lib.rs",
            "pub fn measure() { a::helper() }\n",
        ),
        src("crates/a/src/lib.rs", "pub fn helper() {}\n"),
        src(
            "crates/a/tests/alloc.rs",
            "fn t() { alloc_count::measure() }\n",
        ),
    ];
    // Its items need only a test to reach them, and its own lines reach
    // nothing for production.
    assert_eq!(
        uncalled(&sources),
        [("crates/a/src/lib.rs".to_string(), 1, "helper".to_string())]
    );
}
