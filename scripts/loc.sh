#!/bin/sh
# Prints non-test source lines per file and per crate: every file under
# crates/<crate>/src (bins included), counted up to its first `#[cfg(test)]`
# line, which is where each file's unit-test module starts. Files are listed
# in path order, then one total line per crate, then the sum over the crates.
#
#   scripts/loc.sh              # every crate under crates/
#   scripts/loc.sh core simnet  # just those crates
#
# POSIX sh, find, sort and awk only, like the rest of scripts/.
set -eu
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
    set -- $(find crates -mindepth 1 -maxdepth 1 -type d | sed 's|^crates/||' | sort)
fi
for c in "$@"; do
    [ -d "crates/$c/src" ] || { echo "loc: no crates/$c/src" >&2; exit 2; }
done

for c in "$@"; do
    find "crates/$c/src" -type f -name '*.rs' | LC_ALL=C sort | while read -r f; do
        awk -v crate="$c" '
            /^[ \t]*#\[cfg\(test\)\]/ { nextfile }
            { n++ }
            END { printf "%s %d %s\n", crate, n, FILENAME }
        ' "$f"
    done
done | awk '
    {
        printf "%7d  %s\n", $2, $3
        if (!($1 in total)) order[++crates] = $1
        total[$1] += $2
        sum += $2
    }
    END {
        for (i = 1; i <= crates; i++) printf "%7d  crates/%s/src\n", total[order[i]], order[i]
        printf "%7d  total\n", sum
    }
'
