//! The workspace's public surface, counted by use (ROADMAP item 17(a)).
//!
//! A std-only scan of every Rust source in the workspace: a small lexer
//! skips comments and string/char literals, and reads the fenced code of
//! doc comments as doctest code. Names are matched as identifiers, not
//! resolved, so a common name (`new`, `len`) over-counts: a zero is exact,
//! a positive count is an upper bound.
//!
//! * `surface_report` (ignored) prints, for every `pub` item and every
//!   crate-root re-export, its users in four groups: production code,
//!   other tests, examples and `crates/bench/benches`, and
//!   `benchmark/src`. A `pub` item's own file's `#[cfg(test)]` code is not
//!   a user; a root re-export's users are the paths that go through the
//!   crate root (`mediator_sim::X`, `mediator_talk::sim::X`, `crate::X`).
//!
//!   ```sh
//!   cargo test --test surface -- --ignored --nocapture
//!   ```
//! * `every_pub_fn_has_a_user` fails on a `pub fn` that nothing names
//!   outside its own file's `#[cfg(test)]` code, unless [`UNUSED_KEPT`]
//!   lists it with its reason.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Zero-user `pub fn`s kept on purpose, keyed `file::name`, one reason each.
const UNUSED_KEPT: &[(&str, &str)] = &[
    (
        "crates/core/src/min_info.rs::full_implementation_messages",
        "Lemma 6.8's exact-vs-weak message gap (DESIGN §4, was E8): min_info::tests certify it",
    ),
    (
        "crates/core/src/min_info.rs::weak_implementation_messages",
        "Lemma 6.8's exact-vs-weak message gap (DESIGN §4, was E8): min_info::tests certify it",
    ),
    (
        "crates/core/src/min_info.rs::paper_sufficient_rounds_log2",
        "Lemma 6.8's closed-form R = (4rn)^(4rn), checked against the least R in min_info::tests",
    ),
    (
        "crates/games/src/library.rs::free_rider_game",
        "the §3 Gnutella game behind t-immunity; a library game for the oracle (ROADMAP 8(b))",
    ),
    (
        "crates/games/src/solution.rs::expected_utilities",
        "the exact Definitions 3.1-3.5 oracle (ROADMAP items 8 and 22)",
    ),
    (
        "crates/games/src/solution.rs::is_strongly_k_resilient",
        "the exact Definitions 3.1-3.5 oracle (ROADMAP items 8 and 22)",
    ),
    (
        "crates/games/src/solution.rs::pure_nash_equilibria",
        "the exact Definitions 3.1-3.5 oracle (ROADMAP items 8 and 22)",
    ),
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Group {
    Prod,
    Tests,
    Examples,
    Benchmark,
}

const GROUP_NAMES: [&str; 4] = ["prod", "tests", "examples+benches", "benchmark/src"];

#[derive(Clone, PartialEq, Eq, Debug)]
enum Tok {
    Ident(String),
    Punct(char),
    /// `::`
    Sep,
    /// A literal or a lifetime.
    Lit,
}

fn ident(t: Option<&Tok>) -> Option<&str> {
    match t {
        Some(Tok::Ident(s)) => Some(s),
        _ => None,
    }
}

struct File {
    path: String,
    /// `crates/<dir>/src` → `Some(dir)`; every other file → `None`.
    krate: Option<String>,
    /// A library source (`src/`, or `crates/*/src` outside `bin/`): its
    /// `pub` items are audited and its doc comments hold doctests.
    library: bool,
    toks: Vec<Tok>,
    /// The group each token's use counts in.
    group: Vec<Group>,
    /// Token is inside a `#[cfg(test)]` item of this file.
    unit: Vec<bool>,
    /// Tokens from here on are doctest code.
    doc_start: usize,
}

fn skip_quoted(b: &[u8], mut i: usize) -> usize {
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// The index past the identifier bytes starting at `i`.
fn word_end(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && is_ident_byte(b[i]) {
        i += 1;
    }
    i
}

/// The index past the char literal whose `'` is at `i`; `None` for a lifetime.
fn char_end(src: &str, i: usize) -> Option<usize> {
    let ch = src[i + 1..].chars().next()?;
    if ch == '\\' {
        let close = src
            .as_bytes()
            .get(i + 3..)?
            .iter()
            .position(|&c| c == b'\'')?;
        Some(i + 4 + close)
    } else if src.as_bytes().get(i + 1 + ch.len_utf8()) == Some(&b'\'') {
        Some(i + 2 + ch.len_utf8())
    } else {
        None
    }
}

/// Lexes `src`, appending the code of its fenced Rust doc blocks to `doctest`.
fn lex(src: &str, doctest: &mut String) -> Vec<Tok> {
    let b = src.as_bytes();
    let (mut i, mut toks) = (0, Vec::new());
    // Inside a doc-comment fence: `Some(true)` when it is Rust code.
    let mut fence: Option<bool> = None;
    while i < b.len() {
        let c = b[i];
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            let end = src[i..].find('\n').map_or(b.len(), |e| i + e);
            let line = &src[i..end];
            if let Some(doc) = line
                .strip_prefix("///")
                .or_else(|| line.strip_prefix("//!"))
            {
                let doc = doc.strip_prefix(' ').unwrap_or(doc);
                if let Some(tag) = doc.trim_start().strip_prefix("```") {
                    let tag = tag.trim();
                    let rust = tag.is_empty()
                        || tag.split(',').all(|t| {
                            ["rust", "no_run", "ignore", "should_panic"].contains(&t.trim())
                        });
                    fence = if fence.is_some() { None } else { Some(rust) };
                } else if fence == Some(true) {
                    let code = if doc.trim() == "#" {
                        ""
                    } else {
                        doc.strip_prefix("# ").unwrap_or(doc)
                    };
                    doctest.push_str(code);
                    doctest.push('\n');
                }
            }
            i = end;
        } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let mut depth = 0;
            while i < b.len() {
                if b[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if b[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if c == b'"' {
            i = skip_quoted(b, i + 1);
            toks.push(Tok::Lit);
        } else if c == b'\'' {
            i = char_end(src, i).unwrap_or_else(|| word_end(b, i + 1));
            toks.push(Tok::Lit);
        } else if c.is_ascii_digit() {
            i = word_end(b, i);
            toks.push(Tok::Lit);
        } else if is_ident_byte(c) {
            let start = i;
            i = word_end(b, i);
            let word = &src[start..i];
            let next = b.get(i).copied();
            if matches!(word, "r" | "br") && matches!(next, Some(b'"') | Some(b'#')) {
                let hashes = b[i..].iter().take_while(|&&h| h == b'#').count();
                if b.get(i + hashes) == Some(&b'"') {
                    let close = format!("\"{}", "#".repeat(hashes));
                    let body = i + hashes + 1;
                    i = src[body..]
                        .find(&close)
                        .map_or(b.len(), |e| body + e + close.len());
                    toks.push(Tok::Lit);
                    continue;
                }
                // `r#ident`: a raw identifier.
                i = word_end(b, i + 1);
                toks.push(Tok::Ident(src[start + 2..i].to_string()));
            } else if word == "b" && next == Some(b'"') {
                i = skip_quoted(b, i + 1);
                toks.push(Tok::Lit);
            } else if word == "b" && next == Some(b'\'') {
                i = char_end(src, i).unwrap_or(i + 1);
                toks.push(Tok::Lit);
            } else {
                toks.push(Tok::Ident(word.to_string()));
            }
        } else if c == b':' && b.get(i + 1) == Some(&b':') {
            toks.push(Tok::Sep);
            i += 2;
        } else if c.is_ascii_whitespace() {
            i += 1;
        } else {
            let ch = src[i..].chars().next().unwrap();
            toks.push(Tok::Punct(ch));
            i += ch.len_utf8();
        }
    }
    toks
}

/// Marks every token of each `#[cfg(test)]` item: through its `;`, or
/// through the `}` that closes its first `{`.
fn cfg_test_items(toks: &[Tok]) -> Vec<bool> {
    let attr = [
        Tok::Punct('#'),
        Tok::Punct('['),
        Tok::Ident("cfg".into()),
        Tok::Punct('('),
        Tok::Ident("test".into()),
        Tok::Punct(')'),
        Tok::Punct(']'),
    ];
    let mut unit = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if !toks[i..].starts_with(&attr) {
            i += 1;
            continue;
        }
        let (start, mut depth) = (i, 0);
        i += attr.len();
        while i < toks.len() {
            match toks[i] {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Punct(';') if depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        let end = i.min(toks.len() - 1);
        unit[start..=end].iter_mut().for_each(|u| *u = true);
        i += 1;
    }
    unit
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.map(|e| e.unwrap().path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn workspace() -> Vec<File> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs: Vec<(String, Group)> = vec![
        ("src".into(), Group::Prod),
        ("tests".into(), Group::Tests),
        ("examples".into(), Group::Examples),
        ("crates/bench/benches".into(), Group::Examples),
        ("benchmark/src".into(), Group::Benchmark),
    ];
    let mut crates: Vec<String> = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    crates.sort();
    for c in &crates {
        dirs.push((format!("crates/{c}/src"), Group::Prod));
        dirs.push((format!("crates/{c}/tests"), Group::Tests));
    }
    let mut files = Vec::new();
    for (dir, group) in dirs {
        let mut paths = Vec::new();
        rust_files(&root.join(&dir), &mut paths);
        for p in paths {
            let path = p
                .strip_prefix(root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/");
            let krate = path
                .strip_prefix("crates/")
                .and_then(|r| r.split_once("/src/"))
                .map(|(c, _)| c.to_string());
            let mut doctest = String::new();
            let mut toks = lex(&fs::read_to_string(&p).unwrap(), &mut doctest);
            let unit = cfg_test_items(&toks);
            let mut group: Vec<Group> = unit
                .iter()
                .map(|&u| if u { Group::Tests } else { group })
                .collect();
            let doc_start = toks.len();
            let library = path.starts_with("src/") || krate.is_some() && !path.contains("/bin/");
            if library {
                toks.push(Tok::Punct(';'));
                toks.extend(lex(&doctest, &mut String::new()));
            }
            group.resize(toks.len(), Group::Tests);
            let unit = [unit, vec![false; toks.len() - doc_start]].concat();
            files.push(File {
                path,
                krate,
                library,
                toks,
                group,
                unit,
                doc_start,
            });
        }
    }
    files
}

/// Item keywords whose next identifier is a definition, not a use.
const ITEM_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "mod", "union", "const", "static",
];

struct Def {
    file: usize,
    kind: &'static str,
    name: String,
}

/// Every `pub` item outside `#[cfg(test)]` code of the library sources, and
/// the `(file, token)` positions that name an item without using it: every
/// item's definition, and every `pub use` re-export.
fn definitions(files: &[File]) -> (Vec<Def>, HashSet<(usize, usize)>) {
    let (mut defs, mut sites) = (Vec::new(), HashSet::new());
    for (f, file) in files.iter().enumerate() {
        let t = &file.toks;
        for i in 0..t.len() {
            if ident(t.get(i)) == Some("pub") && ident(t.get(i + 1)) == Some("use") {
                let end = t[i..].iter().position(|x| *x == Tok::Punct(';'));
                sites.extend((i..end.map_or(t.len(), |e| i + e)).map(|k| (f, k)));
            }
            let Some(kw) = ident(t.get(i)).and_then(|w| ITEM_KEYWORDS.iter().find(|&&k| k == w))
            else {
                continue;
            };
            let Some(name) = ident(t.get(i + 1)).filter(|n| *n != "fn" && *n != "mut") else {
                // `const fn` / `static mut`: the name follows the next keyword.
                if ident(t.get(i + 1)) == Some("mut") {
                    sites.insert((f, i + 2));
                }
                continue;
            };
            sites.insert((f, i + 1));
            if !file.library || i >= file.doc_start || file.unit[i] {
                continue;
            }
            // Walk back over `const` / `unsafe` / `async` to a bare `pub`.
            let mut j = i;
            while j > 0 && matches!(ident(t.get(j - 1)), Some("const" | "unsafe" | "async")) {
                j -= 1;
            }
            if j > 0 && ident(t.get(j - 1)) == Some("pub") {
                defs.push(Def {
                    file: f,
                    kind: kw,
                    name: name.to_string(),
                });
            }
        }
    }
    (defs, sites)
}

/// Users of each `pub` item, per group: every identifier token equal to its
/// name outside `sites` and outside its own file's `#[cfg(test)]` code.
fn item_users(files: &[File], defs: &[Def], sites: &HashSet<(usize, usize)>) -> Vec<[usize; 4]> {
    let names: HashSet<&str> = defs.iter().map(|d| d.name.as_str()).collect();
    let mut uses: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (f, file) in files.iter().enumerate() {
        for (i, t) in file.toks.iter().enumerate() {
            if let Some(w) = ident(Some(t)).filter(|w| names.contains(w)) {
                if !sites.contains(&(f, i)) {
                    uses.entry(w).or_default().push((f, i));
                }
            }
        }
    }
    defs.iter()
        .map(|d| {
            let mut count = [0; 4];
            for &(f, i) in uses.get(d.name.as_str()).map_or(&[][..], |v| v) {
                if !(f == d.file && files[f].unit[i]) {
                    count[files[f].group[i] as usize] += 1;
                }
            }
            count
        })
        .collect()
}

/// Walks the path (or use tree) starting at `i`, calling `emit` with each
/// full path's segments and its first token's index; returns the index past it.
fn walk<'a>(
    t: &'a [Tok],
    mut i: usize,
    base: &[&'a str],
    emit: &mut dyn FnMut(&[&'a str], usize),
) -> usize {
    let (start, mut segs) = (i, base.to_vec());
    while let Some(s) = ident(t.get(i)) {
        segs.push(s);
        i += 1;
        if t.get(i) != Some(&Tok::Sep) {
            break;
        }
        i += 1;
        match t.get(i) {
            Some(Tok::Punct('{')) => {
                i += 1;
                loop {
                    i = walk(t, i, &segs, emit);
                    if ident(t.get(i)) == Some("as") {
                        i += 2;
                    }
                    match t.get(i) {
                        Some(Tok::Punct(',')) => i += 1,
                        Some(Tok::Punct('}')) => return i + 1,
                        _ => return i.max(start + 1),
                    }
                }
            }
            Some(Tok::Punct('*')) => {
                i += 1;
                break;
            }
            _ => {}
        }
    }
    if segs.len() > base.len() {
        emit(&segs, start);
    }
    i
}

/// The library name of `crates/<dir>` (`mediator_bcast` for `broadcast`).
fn lib_name(dir: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let toml = fs::read_to_string(root.join(format!("crates/{dir}/Cargo.toml"))).unwrap();
    let line = toml.lines().find(|l| l.starts_with("name")).unwrap();
    line.split('"').nth(1).unwrap().replace('-', "_")
}

struct Root {
    krate: String,
    lib: String,
    name: String,
}

/// Every name a `crates/*/src/lib.rs` re-exports with a top-level `pub use`.
fn root_exports(files: &[File]) -> Vec<Root> {
    let mut roots = Vec::new();
    for file in files
        .iter()
        .filter(|f| f.path.ends_with("/src/lib.rs") && f.krate.is_some())
    {
        let krate = file.krate.clone().unwrap();
        let lib = lib_name(&krate);
        let (t, mut depth) = (&file.toks[..file.doc_start], 0);
        for i in 0..t.len() {
            match t[i] {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => depth -= 1,
                _ => {}
            }
            if depth == 0 && ident(t.get(i)) == Some("pub") && ident(t.get(i + 1)) == Some("use") {
                walk(t, i + 2, &[], &mut |segs, _| {
                    let name = segs.last().unwrap().to_string();
                    roots.push(Root {
                        krate: krate.clone(),
                        lib: lib.clone(),
                        name,
                    });
                });
            }
        }
    }
    roots
}

/// Users of each root re-export, per group: paths through the crate root.
fn root_users(files: &[File], roots: &[Root]) -> Vec<[usize; 4]> {
    // The facade's `pub use mediator_x as x;` aliases.
    let facade = files.iter().find(|f| f.path == "src/lib.rs").unwrap();
    let mut alias: HashMap<&str, &str> = HashMap::new();
    for w in facade.toks.windows(5) {
        if let [Tok::Ident(p), Tok::Ident(u), Tok::Ident(lib), Tok::Ident(a), Tok::Ident(al)] = w {
            if p == "pub" && u == "use" && a == "as" {
                alias.insert(lib, al);
            }
        }
    }
    let index: HashMap<(&str, &str), usize> = roots
        .iter()
        .enumerate()
        .map(|(r, x)| ((x.lib.as_str(), x.name.as_str()), r))
        .collect();
    let libs: HashMap<&str, &str> = roots
        .iter()
        .map(|r| (r.krate.as_str(), r.lib.as_str()))
        .collect();
    let mut count = vec![[0; 4]; roots.len()];
    for file in files {
        let own = file.krate.as_deref().and_then(|k| libs.get(k)).copied();
        let t = &file.toks;
        let mut i = 0;
        while i < t.len() {
            if ident(t.get(i)).is_none() || (i > 0 && t[i - 1] == Tok::Sep) {
                i += 1;
                continue;
            }
            let next = walk(t, i, &[], &mut |segs, at| {
                let (lib, name) = match segs {
                    ["mediator_talk", a, n, ..] => match alias.iter().find(|(_, al)| *al == a) {
                        Some((lib, _)) => (*lib, *n),
                        None => return,
                    },
                    ["crate" | "super", n, ..] => match own {
                        Some(lib) => (lib, *n),
                        None => return,
                    },
                    // A bare alias inside its own crate is not the facade's
                    // (`core::` in `crates/core` is the standard library).
                    [p, n, ..] => match alias.iter().find(|(lib, al)| *lib == p || *al == p) {
                        Some((lib, _)) if lib == p || own != Some(*lib) => (*lib, *n),
                        _ => return,
                    },
                    _ => return,
                };
                if let Some(&r) = index.get(&(lib, name)) {
                    count[r][file.group[at] as usize] += 1;
                }
            });
            i = next.max(i + 1);
        }
    }
    count
}

fn row(label: &str, at: &str, c: &[usize; 4]) -> String {
    format!(
        "| {label} | {at} | {} | {} | {} | {} |",
        c[0], c[1], c[2], c[3]
    )
}

#[test]
#[ignore = "prints the surface report; run with --ignored --nocapture"]
fn surface_report() {
    let files = workspace();
    let (defs, sites) = definitions(&files);
    let users = item_users(&files, &defs, &sites);
    println!("### Public items by user group (tests/surface.rs)");
    println!("| item | defined in | {} |", GROUP_NAMES.join(" | "));
    println!("|---|---|---|---|---|---|");
    for (d, c) in defs.iter().zip(&users) {
        println!(
            "{}",
            row(&format!("{} `{}`", d.kind, d.name), &files[d.file].path, c)
        );
    }
    let roots = root_exports(&files);
    let users = root_users(&files, &roots);
    println!("### Root re-exports by user group (tests/surface.rs)");
    println!("| re-export | crate | {} |", GROUP_NAMES.join(" | "));
    println!("|---|---|---|---|---|---|");
    for (r, c) in roots.iter().zip(&users) {
        println!("{}", row(&format!("`{}::{}`", r.lib, r.name), &r.krate, c));
    }
}

#[test]
fn every_pub_fn_has_a_user() {
    let files = workspace();
    let (defs, sites) = definitions(&files);
    let users = item_users(&files, &defs, &sites);
    let unused: HashSet<String> = defs
        .iter()
        .zip(&users)
        .filter(|(d, c)| d.kind == "fn" && c.iter().sum::<usize>() == 0)
        .map(|(d, _)| format!("{}::{}", files[d.file].path, d.name))
        .collect();
    let kept: HashSet<String> = UNUSED_KEPT.iter().map(|(k, _)| k.to_string()).collect();
    let mut unlisted: Vec<_> = unused.difference(&kept).collect();
    unlisted.sort();
    assert!(
        unlisted.is_empty(),
        "pub fns with no user outside their own unit tests: {unlisted:#?}"
    );
    let mut stale: Vec<_> = kept.difference(&unused).collect();
    stale.sort();
    assert!(
        stale.is_empty(),
        "UNUSED_KEPT names fns that are gone or now used: {stale:#?}"
    );
}
