//! The public surface, counted: every plain `pub` item declared in
//! `crates/*/src` is named by some other source file, or carries a doc line
//! `Public for: …` that names the paper figure or section needing it, or
//! the public signature that exposes it. The number of marked items is
//! pinned below and may only fall.
//!
//! The scan is textual. A declaration is a line before its file's first
//! `#[cfg(test)]` that matches `^\s*pub (fn|struct|enum|trait|const|type|
//! static) NAME`. It is read when NAME occurs as a whole word in the code
//! of another `.rs` file under `crates/`, `spine/src/`, `tests/` or
//! `examples/` (this file excluded); a mention in a `//` comment, doc
//! comments included, is prose and reads nothing. `pub(crate)` and
//! private items are not declarations.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Unread declarations that carry a `Public for:` mark. Lower it when a
/// mark goes; a new public item nothing reads needs a reader instead.
const MARKED: usize = 17;

const KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "const", "type", "static"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, recursively.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Each line of `text` up to its first `//`: the code without its
/// comments. (A `//` inside a string literal cuts the rest of that line too;
/// no reader depends on what follows one.)
fn code_of(text: &str) -> impl Iterator<Item = &str> {
    text.lines().map(|l| l.find("//").map_or(l, |at| &l[..at]))
}

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The name a line declares, if it is `^\s*pub (kind) NAME`.
fn declared_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let (kind, rest) = rest.split_once(' ')?;
    if !KINDS.contains(&kind) {
        return None;
    }
    let end = rest.find(|c: char| !is_word_char(c)).unwrap_or(rest.len());
    let name = &rest[..end];
    let starts_well = name.starts_with(|c: char| c.is_alphabetic() || c == '_');
    starts_well.then_some(name)
}

/// Whether the doc comments and attributes directly above `lines[at]`
/// hold a `/// Public for:` line.
fn is_marked(lines: &[&str], at: usize) -> bool {
    lines[..at]
        .iter()
        .rev()
        .map(|l| l.trim_start())
        .take_while(|l| l.starts_with("///") || l.starts_with("#["))
        .any(|l| l.starts_with("///") && l.contains("Public for:"))
}

struct Declaration {
    file: PathBuf,
    line: usize,
    name: String,
    marked: bool,
}

#[test]
fn every_public_name_has_a_reader_or_a_reason() {
    let root = root();
    let mut sources = Vec::new();
    for crate_dir in fs::read_dir(root.join("crates")).expect("crates/") {
        rs_files(
            &crate_dir.expect("crate dir").path().join("src"),
            &mut sources,
        );
    }
    let this_file = root.join("tests/public_surface.rs");
    let mut readers = Vec::new();
    for dir in ["crates", "spine/src", "tests", "examples"] {
        rs_files(&root.join(dir), &mut readers);
    }
    readers.retain(|p| *p != this_file);
    // One word set per reader file: whole-word lookups without a regex.
    let words: Vec<(PathBuf, HashSet<String>)> = readers
        .into_iter()
        .map(|p| {
            let text = fs::read_to_string(&p).expect("readable source");
            let set = code_of(&text)
                .flat_map(|l| l.split(|c: char| !is_word_char(c)))
                .filter(|w| !w.is_empty())
                .map(str::to_owned)
                .collect();
            (p, set)
        })
        .collect();

    let mut declarations = 0;
    let mut unread = Vec::new();
    for file in &sources {
        let text = fs::read_to_string(file).expect("readable source");
        let lines: Vec<&str> = text
            .lines()
            .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
            .collect();
        for (at, line) in lines.iter().enumerate() {
            let Some(name) = declared_name(line) else {
                continue;
            };
            declarations += 1;
            let read = words.iter().any(|(p, w)| p != file && w.contains(name));
            if !read {
                unread.push(Declaration {
                    file: file.strip_prefix(&root).unwrap_or(file).to_path_buf(),
                    line: at + 1,
                    name: name.to_owned(),
                    marked: is_marked(&lines, at),
                });
            }
        }
    }
    assert!(
        declarations > 100,
        "the scan found only {declarations} declarations under {}",
        root.display()
    );

    let unmarked: Vec<String> = unread
        .iter()
        .filter(|d| !d.marked)
        .map(|d| format!("{}:{} {}", d.file.display(), d.line, d.name))
        .collect();
    assert!(
        unmarked.is_empty(),
        "{} public names no other file reads: delete them, make them \
         pub(crate) or private, or mark why they stay public with a \
         `/// Public for: …` doc line:\n{}",
        unmarked.len(),
        unmarked.join("\n")
    );
    let marked = unread.len();
    assert!(
        marked <= MARKED,
        "{marked} marked public names nothing reads, above the pinned {MARKED}: \
         give the new ones a reader instead"
    );
    assert_eq!(
        marked, MARKED,
        "only {marked} marked public names remain: lower MARKED to {marked}"
    );
}
