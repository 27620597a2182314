//! Guard: the workspace has one hasher.
//!
//! Every hash map in the program code is an `IdMap`, hashed by the keyed
//! multiply-fold hasher in `sds-rand` under a per-map key. A std map with
//! its default SipHash costs tens of nanoseconds a probe on the per-message
//! path, so adding one is a decision, not a side effect. This test scans the
//! non-test code of `crates/*/src` (each file up to its first
//! `#[cfg(test)]`) and fails on `RandomState` or a bare `HashMap`/`HashSet`
//! anywhere but the hash module itself.

use std::path::Path;

/// The one file allowed to name std's hashing types: it defines the alias.
const HASH_MODULE: &str = "crates/rand/src/hash.rs";

const FORBIDDEN: [&str; 3] = ["RandomState", "HashMap", "HashSet"];

/// Collects `file:line: text` for every forbidden name in non-test code.
fn scan(root: &Path, dir: &Path, found: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            scan(root, &path, found);
            continue;
        }
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let rel = path.strip_prefix(root).expect("under the root");
        if rel == Path::new(HASH_MODULE) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable source file");
        for (n, line) in text.lines().enumerate().take_while(|(_, l)| !l.contains("#[cfg(test)]")) {
            if FORBIDDEN.iter().any(|name| line.contains(name)) {
                found.push(format!("{}:{}: {}", rel.display(), n + 1, line.trim()));
            }
        }
    }
}

#[test]
fn program_code_hashes_only_with_the_workspace_hasher() {
    // tests/ is a direct member of the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("tests/ has a parent");
    let mut found = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("readable crates/") {
        let src = krate.expect("readable dir entry").path().join("src");
        if src.is_dir() {
            scan(root, &src, &mut found);
        }
    }
    assert!(
        found.is_empty(),
        "std hashing outside {HASH_MODULE} (use IdMap from sds_rand or sds_simnet): {found:#?}"
    );
}
