#!/bin/sh
# Compares two files of repo-benchmark result lines (parent first, change
# second) and exits non-zero, naming the metric, when the change
#
#   - moves a seed-exact per-layer metric (counts, bytes, simulated-time
#     values: anything not in HOST_TIME below) on any run of either file,
#   - worsens the median of an end-to-end metric by more than its bound
#     (BENCHMARK.json: 25 % on all five),
#   - has a run that is not correct, or fails a larger share of operations,
#   - lacks a workload/trace pair the other file has,
#   - moves a declared metric other than as declared (see below).
#
#   scripts/bench_compare.sh bench-results/<parent>.results bench-results/<change>.results [<declared>]
#
# A change that means to move seed-exact values (one that changes frame
# bytes or event order) names them in the optional declared file, one
# '<workload> <metric> up|down|moved' line each ('#' comments allowed). A
# declared metric must still repeat exactly within each file, must differ
# between the files in the declared direction (`moved`: either way), and
# must occur in some run; every metric not declared still compares exactly.
#
# A results file holds '#' comment lines (keep the benchmark's header line
# there: rev, seed, nproc, rustc) and one line per run:
#
#   <workload> <trace 0|1> <the run's last stdout line, the result object>
#
# recorded with, per workload W and trace flag T (build each revision into
# its own CARGO_TARGET_DIR first; `cargo test` does not rebuild the binary):
#
#   printf '%s %s ' W T; sds-benchmark --workload W --trace T --seconds S | tail -n 1
#
# Untraced runs carry the five end-to-end metrics; record several per
# workload, alternating the two revisions, at BENCHMARK.json's run_seconds.
# Traced runs carry the per-layer metrics. The simulator workloads' counts
# are per repetition, so any S compares; registry_hot/registry_scan count
# over the whole run, so record their traced runs at `--seconds 0.001`,
# which pins both revisions to the minimum repetition count.
#
# POSIX sh, awk and sort only, like the rest of scripts/.
set -eu

if [ $# -ne 2 ] && [ $# -ne 3 ]; then
    echo "usage: $0 <parent.results> <change.results> [<declared>]" >&2
    exit 2
fi
for f in "$@"; do
    [ -s "$f" ] || { echo "bench_compare: $f is missing or empty" >&2; exit 2; }
done

awk -v declared_file="${3:-}" '
BEGIN {
    # Declared movements: want[workload, metric] = up | down | moved.
    if (declared_file != "") {
        while ((getline line < declared_file) > 0) {
            if (line ~ /^[ \t]*(#|$)/) continue
            if (split(line, f, " ") != 3 || f[3] !~ /^(up|down|moved)$/) {
                print "bench_compare: bad declared line: " line
                bad_declared = 1
                exit 2
            }
            want[f[1], f[2]] = f[3]
        }
        close(declared_file)
    }
    # End-to-end metrics: 1 = lower is better, -1 = higher is better.
    dir["setup_s"] = 1; dir["wall_s"] = 1; dir["work_per_s"] = -1
    dir["step_p50_us"] = 1; dir["peak_rss_mib"] = 1
    BOUND = 0.25
    # Per-layer metrics measured in host time: reported, never compared.
    # Every other per-layer metric repeats exactly for a seed.
    n = split("simnet.ns_per_event core.ns_per_event core.host_us_per_discovery " \
        "registry.cache.get_ns registry.cache.insert_ns registry.shard.route_ns " \
        "registry.sharded.evaluate_ns_per_query registry.store.candidates_ns_per_query " \
        "registry.store.publish_ns registry.store.renew_ns registry.store.purge_ns_per_advert " \
        "registry.engine.rank_ns_per_query registry.sync.digest_ns " \
        "semantic.reasoner.closure_build_ms semantic.matchmaker.match_ns_per_pair " \
        "semantic.matchmaker.match_share protocol.codec.encode_ns_per_msg " \
        "protocol.codec.decode_ns_per_msg workload.generate_ms workload.oracle_ms " \
        "metrics.fold_ms bench.trace_overhead_ratio host.step_tail_us", names, " ")
    for (i = 1; i <= n; i++) HOST_TIME[names[i]] = 1
    side = 0
}

function fail(msg) {
    print "FAIL " msg
    failures++
}

# The number after "name": in a flat stretch of JSON.
function number_after(text, name,    rest) {
    rest = text
    if (!sub(".*\"" name "\": *", "", rest)) return ""
    sub("[,}].*", "", rest)
    return rest
}

function median(k, cnt,    i, j, v, tmp) {
    for (i = 1; i <= cnt; i++) tmp[i] = e2e[k, i]
    for (i = 2; i <= cnt; i++) {
        v = tmp[i]
        for (j = i - 1; j >= 1 && tmp[j] > v; j--) tmp[j + 1] = tmp[j]
        tmp[j + 1] = v
    }
    lo = tmp[1]; hi = tmp[cnt]
    return cnt % 2 ? tmp[(cnt + 1) / 2] : (tmp[cnt / 2] + tmp[cnt / 2 + 1]) / 2
}

FNR == 1 { side++; file[side] = FILENAME }
/^#/ || NF == 0 { next }
{
    run = $1 " " ($2 == 1 ? "traced" : "untraced")
    seen[side, run]++
    runs[run] = 1
    head = $0
    sub(/"metrics".*/, "", head)
    if (head !~ /"correct": *true/) fail(run ": a run in " file[side] " is not correct")
    attempted[side, run] += number_after(head, "attempted")
    failed[side, run] += number_after(head, "failed")

    rest = $0
    sub(/.*"metrics": *\{/, "", rest)
    while (match(rest, /"[^"]+": *\{"value": *[^,}]+/)) {
        item = substr(rest, RSTART, RLENGTH)
        rest = substr(rest, RSTART + RLENGTH)
        name = item
        sub(/^"/, "", name)
        sub(/".*/, "", name)
        value = item
        sub(/.*"value": */, "", value)
        if (name in dir) {
            k = side SUBSEP run SUBSEP name
            e2e[k, ++e2e_n[k]] = value + 0
        } else if (($1, name) in want) {
            # Declared: exact within each file, compared across them in END.
            k = side SUBSEP run SUBSEP name
            found[$1, name] = 1
            moved_run[run SUBSEP name] = $1
            if (!(k in moved)) moved[k] = value
            else if (moved[k] != value)
                fail(run " " name ": " moved[k] " != " value " within " file[side])
        } else if (!(name in HOST_TIME)) {
            k = run SUBSEP name
            if (!(k in exact)) {
                exact[k] = value
                exact_from[k] = file[side]
            } else if (exact[k] != value) {
                fail(run " " name ": " exact[k] " (" exact_from[k] ") != " value " (" file[side] ")")
            }
            compared++
        }
    }
}

END {
    if (bad_declared) exit 2
    if (side != 2) { print "FAIL: need two result files"; exit 2 }
    for (run in runs) {
        if (!((1, run) in seen) || !((2, run) in seen)) {
            fail(run ": no run in " (((1, run) in seen) ? file[2] : file[1]))
            continue
        }
        share_a = attempted[1, run] ? failed[1, run] / attempted[1, run] : 0
        share_b = attempted[2, run] ? failed[2, run] / attempted[2, run] : 0
        if (share_b > share_a)
            fail(run ": failed share " share_a " -> " share_b)
        for (name in dir) {
            ka = 1 SUBSEP run SUBSEP name
            kb = 2 SUBSEP run SUBSEP name
            if (!(ka in e2e_n) && !(kb in e2e_n)) continue
            if (!(ka in e2e_n) || !(kb in e2e_n)) { fail(run " " name ": in one file only"); continue }
            a = median(ka, e2e_n[ka]); a_lo = lo; a_hi = hi
            b = median(kb, e2e_n[kb]); b_lo = lo; b_hi = hi
            worse = dir[name] > 0 ? b / a - 1 : 1 - b / a
            line = sprintf("%-26s %-13s %11.4g [%.4g, %.4g] n=%d -> %11.4g [%.4g, %.4g] n=%d  %+6.1f%%", \
                run, name, a, a_lo, a_hi, e2e_n[ka], b, b_lo, b_hi, e2e_n[kb], (b / a - 1) * 100)
            if (worse > BOUND) fail(line " worse than the " BOUND * 100 " % bound")
            else print "ok   " line | "sort"
        }
    }
    for (k in moved_run) {
        split(k, rk, SUBSEP)
        ka = 1 SUBSEP k
        kb = 2 SUBSEP k
        if (!(ka in moved) || !(kb in moved)) { fail(rk[1] " " rk[2] ": declared, in one file only"); continue }
        a = moved[ka]; b = moved[kb]
        how = want[moved_run[k], rk[2]]
        ok = how == "up" ? b + 0 > a + 0 : how == "down" ? b + 0 < a + 0 : a != b
        line = sprintf("%-26s %s: %s -> %s (declared %s)", rk[1], rk[2], a, b, how)
        if (!ok) fail(line)
        else print "moved " line | "sort"
    }
    for (k in want) {
        split(k, wk, SUBSEP)
        if (!(k in found)) fail(wk[1] " " wk[2] ": declared but in no run")
    }
    # Sorted, because awk iterates arrays in no particular order.
    close("sort")
    printf "%d seed-exact values compared, %d failure(s)\n", compared, failures
    exit failures ? 1 : 0
}
' "$1" "$2"
