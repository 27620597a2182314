#!/bin/sh
# Prints the configuration surface of the workspace:
#
#   - one line per `pub struct` under crates/*/src whose name ends in Config,
#     Policy, Options, Spec, Profile or Capacity: its number of `pub` fields,
#     its name and its file (each file read up to its first `#[cfg(test)]`
#     line, as scripts/loc.sh counts lines);
#   - the total of those field counts;
#   - one line per environment variable with the project prefix that code
#     under crates/ or tests/ reads through `env::var` or `env::var_os`,
#     with the number of places that read it.
#
#   scripts/knobs.sh
#
# POSIX sh, find, sort and awk only, like the rest of scripts/.
set -eu
cd "$(dirname "$0")/.."

find crates -path 'crates/*/src/*' -type f -name '*.rs' | LC_ALL=C sort | while read -r f; do
    awk '
        /^[ \t]*#\[cfg\(test\)\]/ { nextfile }
        !name && /^[ \t]*pub struct [A-Za-z0-9_]*(Config|Policy|Options|Spec|Profile|Capacity)[ \t]*(<[^>]*>)?[ \t]*\{/ {
            name = $0
            sub(/^[ \t]*pub struct /, "", name)
            sub(/[^A-Za-z0-9_].*$/, "", name)
            fields = 0
            next
        }
        name && /^[ \t]*pub[ \t]+[A-Za-z_][A-Za-z0-9_]*[ \t]*:/ { fields++ }
        name && /^[ \t]*\}/ {
            printf "%7d  %s  %s\n", fields, name, FILENAME
            name = ""
        }
    ' "$f"
done | awk '{ print; sum += $1 } END { printf "%7d  total pub fields\n", sum }'

find crates tests -type f -name '*.rs' ! -path '*/target/*' | LC_ALL=C sort | xargs awk '
    {
        line = $0
        while (match(line, /env::var(_os)?\("SDS_[A-Z0-9_]+"\)/)) {
            call = substr(line, RSTART, RLENGTH)
            sub(/^[^"]*"/, "", call)
            sub(/".*$/, "", call)
            reads[call]++
            line = substr(line, RSTART + RLENGTH)
        }
    }
    END { for (v in reads) printf "%7d  %s\n", reads[v], v }
' | LC_ALL=C sort -k2
