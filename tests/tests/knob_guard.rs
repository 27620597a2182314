//! Guard: the set of `SDS_*` environment knobs is pinned.
//!
//! Every environment variable is a configuration the tests and the
//! benchmark do not cover by default, so adding one is a decision, not a
//! side effect. This test scans the source trees for `SDS_`-prefixed names
//! and fails on any name that is not in [`KNOBS`].

use std::collections::BTreeSet;
use std::path::Path;

/// The environment knobs the workspace reads, and nothing else.
const KNOBS: [&str; 7] = [
    "SDS_BENCH_QUICK",
    "SDS_BENCH_THREADS",
    "SDS_CHAOS_SEEDS",
    "SDS_CHECK_CASES",
    "SDS_CHECK_SEED",
    "SDS_CHECK_SIZE_FACTOR",
    "SDS_RECOVERY_BOUND",
];

/// Every `SDS_[A-Z0-9_]+` token in `text`.
fn knob_names(text: &str) -> impl Iterator<Item = &str> {
    let is_name = |c: char| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_';
    text.match_indices("SDS_").filter_map(move |(at, prefix)| {
        let rest = &text[at..];
        let name = &rest[..rest.find(|c| !is_name(c)).unwrap_or(rest.len())];
        // The bare prefix (`SDS_*` in prose) names no knob.
        (name.len() > prefix.len()).then_some(name)
    })
}

/// Collects `(name, file)` for every knob name under `dir` that is not pinned.
fn scan(dir: &Path, unpinned: &mut BTreeSet<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                scan(&path, unpinned);
            }
        } else if let Ok(text) = std::fs::read_to_string(&path) {
            for name in knob_names(&text).filter(|name| !KNOBS.contains(name)) {
                unpinned.insert((name.to_string(), path.display().to_string()));
            }
        }
    }
}

#[test]
fn only_the_pinned_env_knobs_exist() {
    // tests/ is a direct member of the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("tests/ has a parent");
    let mut unpinned = BTreeSet::new();
    for dir in ["crates", "tests", "scripts", "examples"] {
        scan(&root.join(dir), &mut unpinned);
    }
    assert!(
        unpinned.is_empty(),
        "environment knobs outside the pinned set (delete them, or justify and pin them): \
         {unpinned:?}"
    );
}
