//! The public surface is audited by a test, not by grep.
//!
//! Every `pub fn / struct / enum / trait / type / const` defined in
//! `crates/*/src` (outside `#[cfg(test)]` code) must have a use somewhere in
//! the tree other than its own file's `#[cfg(test)]` code. The search covers
//! `crates/`, `src/`, `tests/`, `examples/` and `benchmarks/` (the frozen
//! `plum-e2e` harness included). A use is the item's name as a whole
//! identifier in code: `//` comments and string and char literals are
//! blanked first (the tree has no block comments or raw strings), `pub use`
//! re-exports and `mod` declarations do not count, and neither does the
//! name at any definition site. Nor is a field a use of a `pub fn` of the
//! same name: a field access (`.name` not followed by `(` or `::`) and a
//! field declaration, initializer or pattern (`name:` not followed by `:`)
//! do not count for functions. Methods are audited by name, so a
//! common name (`new`, `len`) always finds a use; the audit catches the
//! specific names, which is where caller-less code accumulates.
//!
//! A hit is deleted, gated behind `#[cfg(test)]`, or listed in [`ALLOW`]
//! with a one-line reason — never silenced with `#[allow(dead_code)]`.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// `(file under crates/, item, reason)`: public items kept without a caller.
const ALLOW: &[(&str, &str, &str)] = &[
    (
        "mesh/src/sfc.rs",
        "hilbert_decode",
        "inverse of `hilbert_key`: the SFC proptests prove the curve a bijection through it",
    ),
    (
        "parsim/src/clock.rs",
        "rewinds_blocked",
        "the clock's own count of blocked rewinds, beside the `RewindBlocked` trace record: \
         a detection counter the clock tests read",
    ),
    (
        "parsim/src/executor.rs",
        "try_spmd",
        "the non-panicking twin of `spmd`: the deadlock tests' entry point",
    ),
];

/// Keywords after which an identifier is being defined, not used.
const DEFINERS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// Item kinds the audit covers (`fn` may follow `const` / `unsafe`).
const KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const"];

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// `src` with every `//` comment and every string/char literal blanked to
/// spaces (newlines kept), so offsets still line up with the original.
fn code_only(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut blank = |from: usize, to: usize| {
        for c in &mut out[from..to.min(b.len())] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
    };
    let mut i = 0;
    while i < b.len() {
        let end = match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => src[i..].find('\n').map_or(b.len(), |n| i + n),
            b'"' => {
                let mut j = i + 1;
                while j < b.len() && b[j] != b'"' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                j + 1
            }
            // An escaped char literal ('\n', '\'', '\u{..}').
            b'\'' if b.get(i + 1) == Some(&b'\\') => {
                let mut j = i + 3;
                while j < b.len() && b[j] != b'\'' {
                    j += 1;
                }
                j + 1
            }
            // A plain char literal ('x', '{'); otherwise a lifetime.
            b'\'' => {
                let len = src[i + 1..].chars().next().map_or(1, char::len_utf8);
                if b.get(i + 1 + len) == Some(&b'\'') {
                    i + 2 + len
                } else {
                    i + 1
                }
            }
            _ => {
                i += 1;
                continue;
            }
        };
        if end > i + 1 {
            blank(i, end);
        }
        i = end;
    }
    String::from_utf8(out).expect("blanking keeps UTF-8 intact")
}

/// The `(start, end)` byte span of every token of blanked code: whole
/// identifiers, and single punctuation bytes (numbers are dropped).
fn tokens(code: &str) -> Vec<(usize, usize)> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        if is_ident(b[i]) {
            while i < b.len() && is_ident(b[i]) {
                i += 1;
            }
            if !b[start].is_ascii_digit() {
                out.push((start, i));
            }
        } else {
            i += 1;
            if !b[start].is_ascii_whitespace() {
                out.push((start, i));
            }
        }
    }
    out
}

/// One parsed source file.
struct Source {
    /// Path relative to the repo root.
    rel: String,
    code: String,
    toks: Vec<(usize, usize)>,
    /// Byte ranges of `#[cfg(test)]` items.
    test_ranges: Vec<(usize, usize)>,
    /// Modules this file declares as `#[cfg(test)] mod name;`.
    test_mods: Vec<String>,
    /// Token indices that are not uses: definition names, `pub use`
    /// statements, `mod` declarations.
    not_uses: BTreeSet<usize>,
    /// Token indices that name a field, so are not uses of a function.
    field_uses: BTreeSet<usize>,
}

impl Source {
    fn new(rel: String, text: &str) -> Source {
        let code = code_only(text);
        let mut src = Source {
            rel,
            toks: tokens(&code),
            code,
            test_ranges: Vec::new(),
            test_mods: Vec::new(),
            not_uses: BTreeSet::new(),
            field_uses: BTreeSet::new(),
        };
        src.find_test_items();
        src.not_uses = src.non_uses();
        src.field_uses = src.field_uses();
        src
    }

    fn text(&self, k: usize) -> &str {
        self.toks.get(k).map_or("", |&(a, b)| &self.code[a..b])
    }

    fn ident(&self, k: usize) -> Option<&str> {
        Some(self.text(k)).filter(|t| t.bytes().next().is_some_and(is_ident))
    }

    fn is(&self, k: usize, punct: &str) -> bool {
        self.text(k) == punct
    }

    /// Index just past the token closing the bracket opened at `k`.
    fn skip_group(&self, k: usize) -> usize {
        let mut depth = 0;
        for j in k..self.toks.len() {
            match self.text(j) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
        }
        self.toks.len()
    }

    /// Record every `#[cfg(test)]` item: its byte range, and the module
    /// name when it is an out-of-line `mod name;`.
    fn find_test_items(&mut self) {
        let attr = ["#", "[", "cfg", "(", "test", ")", "]"];
        let mut k = 0;
        while k + attr.len() <= self.toks.len() {
            if !(0..attr.len()).all(|d| self.text(k + d) == attr[d]) {
                k += 1;
                continue;
            }
            let mut j = k + attr.len();
            // Further attributes on the same item.
            while self.is(j, "#") {
                j = self.skip_group(j + 1);
            }
            let item = j;
            // The item ends at its first top-level `;` or its `{ … }` body.
            let end = loop {
                match self.text(j) {
                    "" => break self.toks.len(),
                    ";" => break j + 1,
                    "{" => break self.skip_group(j),
                    "(" | "[" => j = self.skip_group(j),
                    _ => j += 1,
                }
            };
            if self.is(end - 1, ";") {
                if let Some(m) = (item..end).find(|&t| self.text(t) == "mod") {
                    self.test_mods.push(self.text(m + 1).to_string());
                }
            }
            self.test_ranges
                .push((self.toks[k].0, self.toks[end - 1].1));
            k = end;
        }
    }

    fn non_uses(&self) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for k in 0..self.toks.len() {
            let word = self.text(k);
            let lifetime = k > 0 && self.is(k - 1, "'");
            if DEFINERS.contains(&word) && !lifetime {
                out.insert(k + 1);
            }
            if word == "use" && k > 0 && self.is(k - 1, "pub") {
                let end = (k..self.toks.len())
                    .find(|&j| self.is(j, ";"))
                    .unwrap_or(self.toks.len());
                out.extend(k..end);
            }
        }
        out
    }

    /// Identifiers that name a field: a field access (`.name` not followed
    /// by `(` or `::`), or a field declaration, initializer or pattern
    /// (`name:` not followed by `:`).
    fn field_uses(&self) -> BTreeSet<usize> {
        let path = |j: usize| self.is(j, ":") && self.is(j + 1, ":");
        (0..self.toks.len())
            .filter(|&k| self.ident(k).is_some())
            .filter(|&k| {
                let after_dot = k > 0 && self.is(k - 1, ".");
                let access = after_dot && !self.is(k + 1, "(") && !path(k + 1);
                access || (self.is(k + 1, ":") && !path(k + 1))
            })
            .collect()
    }

    fn in_test(&self, byte: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= byte && byte < b)
    }

    /// `(kind, name)` of the audited `pub` items defined outside
    /// `#[cfg(test)]` code.
    fn public_items(&self) -> Vec<(&str, &str)> {
        let mut out = Vec::new();
        for k in 0..self.toks.len() {
            if !self.is(k, "pub") || self.in_test(self.toks[k].0) {
                continue;
            }
            let mut j = k + 1;
            while matches!(self.text(j), "const" | "unsafe")
                && matches!(self.text(j + 1), "fn" | "unsafe")
            {
                j += 1;
            }
            if KINDS.contains(&self.text(j)) {
                if let Some(name) = self.ident(j + 1) {
                    out.push((self.text(j), name));
                }
            }
        }
        out
    }
}

/// Every `.rs` file under `dir`, skipping build output and hidden dirs.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.map(|e| e.unwrap().path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Audited items with no use outside their own file's test code, as
/// `(file relative to crates/, name)`.
fn orphans(root: &Path) -> BTreeSet<(String, String)> {
    let mut paths = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmarks"] {
        rust_files(&root.join(dir), &mut paths);
    }
    let sources: Vec<Source> = paths
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(root).unwrap().to_string_lossy().into_owned();
            Source::new(rel, &fs::read_to_string(p).unwrap())
        })
        .collect();

    // Files that are test-only as a whole: `#[cfg(test)] mod name;`.
    let mut test_files = BTreeSet::new();
    for s in &sources {
        let dir = match s.rel.rsplit_once('/') {
            Some((dir, "lib.rs" | "main.rs")) => dir.to_string(),
            _ => s.rel.trim_end_matches(".rs").to_string(),
        };
        for m in &s.test_mods {
            test_files.insert(format!("{dir}/{m}.rs"));
        }
    }

    // name → every (source, byte, names a field) where it is used.
    let mut uses: BTreeMap<&str, Vec<(usize, usize, bool)>> = BTreeMap::new();
    for (f, s) in sources.iter().enumerate() {
        for k in 0..s.toks.len() {
            if let Some(name) = s.ident(k).filter(|_| !s.not_uses.contains(&k)) {
                let field = s.field_uses.contains(&k);
                uses.entry(name).or_default().push((f, s.toks[k].0, field));
            }
        }
    }

    let mut out = BTreeSet::new();
    for (f, s) in sources.iter().enumerate() {
        let Some(file) = s.rel.strip_prefix("crates/") else {
            continue;
        };
        if !file.contains("/src/") || test_files.contains(&s.rel) {
            continue;
        }
        for (kind, name) in s.public_items() {
            let used = uses
                .get(name)
                .into_iter()
                .flatten()
                .filter(|&&(.., field)| !(field && kind == "fn"))
                .any(|&(g, byte, _)| g != f || !s.in_test(byte));
            if !used {
                out.insert((file.to_string(), name.to_string()));
            }
        }
    }
    out
}

#[test]
fn every_public_item_has_a_caller_outside_its_own_tests() {
    let found = orphans(Path::new(env!("CARGO_MANIFEST_DIR")));
    let allowed: BTreeSet<(String, String)> = ALLOW
        .iter()
        .map(|&(file, name, _)| (file.to_string(), name.to_string()))
        .collect();
    let list = |items: BTreeSet<&(String, String)>| {
        items
            .iter()
            .map(|(file, name)| format!("  {file}: {name}"))
            .collect::<Vec<_>>()
            .join("\n")
    };

    let unlisted = list(found.difference(&allowed).collect());
    assert!(
        unlisted.is_empty(),
        "public items with no use outside their own file's tests — delete them, gate them \
         behind #[cfg(test)], or allow-list them with a reason in tests/public_surface.rs:\n\
         {unlisted}"
    );
    let stale = list(allowed.difference(&found).collect());
    assert!(
        stale.is_empty(),
        "allow-listed items that now have a caller or are gone — drop them from ALLOW:\n{stale}"
    );
}

/// The audit's own machinery: comments, strings and char literals never
/// count as uses, a `#[cfg(test)]` item is found with its exact extent, and
/// a field is told from a function.
#[test]
fn blanking_and_test_regions_are_exact() {
    let src = "pub fn a() {} // b\nfn c() { let _ = \"d{\"; let _ = '}'; }\n\
               #[cfg(test)]\nmod tests { fn h<'x>() {} }\npub use k;\n";
    let s = Source::new("x.rs".to_string(), src);

    assert_eq!(s.code.len(), src.len());
    let words: Vec<_> = (0..s.toks.len()).filter_map(|k| s.ident(k)).collect();
    assert_eq!(
        words,
        [
            "pub", "fn", "a", "fn", "c", "let", "_", "let", "_", "cfg", "test", "mod", "tests",
            "fn", "h", "x", "pub", "use", "k"
        ]
    );
    assert_eq!(s.test_ranges.len(), 1);
    let (a, b) = s.test_ranges[0];
    assert!(src[a..b].starts_with("#[cfg(test)]") && src[a..b].ends_with("{} }"));
    assert!(!s.in_test(src.find("pub use").unwrap()));
    assert_eq!(s.public_items(), [("fn", "a")]);
    let k = (0..s.toks.len()).find(|&k| s.is(k, "k")).unwrap();
    assert!(s.not_uses.contains(&k), "a re-export is not a use");

    // A field access, declaration, initializer or pattern names a field;
    // a method call, a turbofish call and a path do not.
    let src = "struct S { m: u8 }\nfn f(s: S) { s.m; S { m: 1 }; let S { m: _ } = s; \
               s.m(); s.m::<u8>(); S::m(); }\n";
    let s = Source::new("y.rs".to_string(), src);
    let field: Vec<bool> = (0..s.toks.len())
        .filter(|&k| s.is(k, "m"))
        .map(|k| s.field_uses.contains(&k))
        .collect();
    assert_eq!(field, [true, true, true, true, false, false, false]);
}
