#!/usr/bin/env bash
# Parent/change pairs at rep granularity on the repository benchmark,
# written to a JSON file that is committed with the change, so that the
# speed and memory of every PR stay comparable in git.
#
#   scripts/pairs.sh PARENT [N] [OUT] [FIRST]
#
# Builds PARENT (any commit-ish, unpacked with `git archive`) and the
# current checkout (tracked and untracked files, ignored ones left out)
# in LAYOUTS source directories of equal name length, both sides in each
# directory one after the other, each build into a target directory of
# its own (2 x LAYOUTS builds), then runs REPEATS rounds over N seeds
# (default 10), i = FIRST .. FIRST+N-1 (FIRST defaults to 1). Round r
# runs both sides' builds from directory (r - 1) % LAYOUTS + 1. A pair is
# one short invocation per side of the binary `benchmark/run.sh` builds
# and execs,
#
#   benchmark/run.sh --workload W --seed i --seconds 0 --trace 0
#
# (three timed reps), for each workload of BENCHMARK.json in turn, both
# sides pinned with `taskset` to the same CPU: the highest one the
# script may run on (start it under `taskset -c K` to pick CPU K). The
# order alternates from pair to pair within a round and flips each round,
# so that every seed sees the parent first as often as the change. The
# default, 10 seeds x 12 rounds, takes 30-40 minutes on 2 vCPUs. A
# claim is re-checked on seeds it was not measured on with FIRST, e.g.
# the held-out seeds 41-45:
#
#   scripts/pairs.sh PARENT 5 heldout.json 41
#
# Both sides of a pair are built at one path because cargo hashes a path
# package's directory into its symbol names and the binary embeds its
# source paths: the same source built at two paths gave two layouts
# (`.text` 3 KiB apart), and an A/A run read `worse` or `resolved` on 4
# to 7 of 12 cells by about 1-2 %, also with each side's paths remapped
# to one prefix. Built at one path, the same source gives byte-identical
# binaries, which the file records per directory as `same_binary`. Each
# directory's name still draws one layout of the changed code, and one
# draw moved `guest_mips` by up to 2.5 %, so a verdict pools pairs from
# LAYOUTS directories and the file keeps the median ratio of each beside
# it.
#
# OUT defaults (also when given as "") to BENCH_PR<NN>.json at the
# repository root, NN the number of the checkout's ISSUE.md heading
# ("# ISSUE NN ..."); without one, one more than the newest "PR NN" entry
# of PARENT's CHANGES.md (a PR may land as several commits, so no subject
# line need name it).
#
# The verdict is paired: per workload and end-to-end metric, the median
# of the per-pair ratios change/parent, with a distribution-free
# sign-test interval for that median. Its level is 95 % for the whole
# file (Bonferroni over its workload x metric cells), so an A/A run
# reads unresolved on every cell 95 % of the time.
#
#   resolved    the interval lies wholly on the better side of 1, and
#               so does every directory's median ratio
#   worse       the interval and every directory's median ratio lie on
#               the worse side of 1, or the median ratio is worse than
#               the metric's bound
#   unresolved  anything else
#
# The pooled test treats a directory's pairs as independent, but they
# share that directory's layout, so a layout effect larger than the
# interval could decide a cell alone; each cell records whether its
# directories lie on one side of 1 (`layouts_agree`).
#
# `half_width` is half the interval's width as a fraction: an effect much
# smaller than it cannot resolve at this pair count. Beside each verdict
# the file keeps both sides' absolute medians, so that drift across PRs
# stays visible. It also holds every pair, the failed reps of each side
# and a host fingerprint (CPU model, core count, kernel, rustc). Nothing
# under benchmark/ changes.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD

# Rounds over the seeds; sized for 30-40 minutes at the default N.
REPEATS=12
# Source directories, one per round in turn; REPEATS is a multiple of it.
LAYOUTS=3

parent=${1:?usage: scripts/pairs.sh PARENT [N] [OUT] [FIRST]}
n=${2:-10}
first=${4:-1}
parent_sha=$(git rev-parse --verify "$parent^{commit}")
if [ -n "${3:-}" ]; then
    out=$3
elif issue=$(sed -nE '1s/^# ISSUE ([0-9]+)\b.*/\1/p' ISSUE.md 2>/dev/null) && [ -n "$issue" ]; then
    out="BENCH_PR$issue.json"
else
    last=$(git show "$parent_sha:CHANGES.md" | { grep -oE '^PR [0-9]+' || true; } | tail -1 | cut -d' ' -f2)
    out="BENCH_PR$(( ${last:-0} + 1 )).json"
fi
cpu=$(python3 -c 'import os; print(max(os.sched_getaffinity(0)))')

work=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT

# Unpacks one side's source at $work/srcL and builds it from there into
# $work/target-SIDE-L. A file deleted from the checkout but not from the
# index is left out.
build() {
    local side=$1 layout=$2 src=$work/src$2
    rm -rf "$src"
    mkdir "$src"
    if [ "$side" = parent ]; then
        git archive "$parent_sha" | tar -x -C "$src"
    else
        git ls-files -z -co --exclude-standard |
            tar -c --null --ignore-failed-read -T - | tar -x -C "$src"
    fi
    (cd "$src" && CARGO_TARGET_DIR="$work/target-$side-$layout" \
        cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2)
}
# One invocation; appends `side workload seed round <last stdout line>`
# to runs.txt (`null` when it died, which counts as a failed rep).
run() {
    local side=$1 workload=$2 seed=$3 round=$4 line
    local layout=$(((round - 1) % LAYOUTS + 1))
    if line=$(cd "$work" &&
        taskset -c "$cpu" "$work/target-$side-$layout/release/darco-benchmark" \
            --workload "$workload" --seed "$seed" --seconds 0 --trace 0 2>/dev/null | tail -1); then
        :
    else
        line=null
    fi
    printf '%s %s %s %s %s\n' "$side" "$workload" "$seed" "$round" "${line:-null}" >>"$work/runs.txt"
}

for layout in $(seq 1 "$LAYOUTS"); do
    build parent "$layout"
    build change "$layout"
done
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
: >"$work/runs.txt"
for round in $(seq 1 "$REPEATS"); do
    for s in $(seq 0 $((n - 1))); do
        seed=$((first + s))
        echo "round $round/$REPEATS seed $seed (CPU $cpu)" >&2
        for w in $workloads; do
            if [ $(((round + s) % 2)) -eq 1 ]; then
                run parent "$w" "$seed" "$round"
                run change "$w" "$seed" "$round"
            else
                run change "$w" "$seed" "$round"
                run parent "$w" "$seed" "$round"
            fi
        done
    done
done

cpu_model=$(grep -m1 '^model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//' || echo unknown)
# Any change to the checkout but OUT itself, untracked files included
# (`git diff HEAD` would miss a new file the change's build reads).
out_rel=$(realpath --relative-to="$root" -m "$out")
dirty=false
if git status --porcelain --untracked-files=all | cut -c4- | grep -vxF "$out_rel" >/dev/null; then
    dirty=true
fi
# One word per directory: true where both sides built byte-identical.
same=$(for layout in $(seq 1 "$LAYOUTS"); do
    if cmp -s "$work/target-parent-$layout/release/darco-benchmark" \
        "$work/target-change-$layout/release/darco-benchmark"; then
        echo true
    else
        echo false
    fi
done)
PARENT_SHA=$parent_sha HEAD_SHA=$(git rev-parse HEAD) DIRTY=$dirty SAME=$same N=$n FIRST=$first \
REPEATS=$REPEATS LAYOUTS=$LAYOUTS CPU=$cpu CPU_MODEL=$cpu_model CORES=$(nproc) KERNEL=$(uname -r) \
RUSTC=$(rustc --version) \
    python3 - "$work/runs.txt" "$out" <<'EOF'
import json, math, os, sys

FAMILY_ALPHA = 0.05

def median(xs):
    """The median as benchmark/src/stats.rs computes it."""
    s = sorted(xs)
    m = len(s)
    if m == 1:
        return s[0]
    j = min(max(2 * (m + 1) // 4, 1), m - 1)
    delta = 2 * (m + 1) - j * 4
    return (s[j - 1] * (4 - delta) + s[j] * delta) / 4

def sign_interval(xs, alpha):
    """Distribution-free interval for the median of xs at level 1 - alpha:
    order statistics k and n+1-k, k the largest with
    P(Binomial(n, 1/2) <= k - 1) <= alpha / 2. None when n is too small."""
    s = sorted(xs)
    n = len(s)
    k, cdf = 0, 0.0
    while True:
        cdf += math.comb(n, k) / 2 ** n
        if cdf > alpha / 2:
            break
        k += 1
    if k == 0:
        return None
    return s[k - 1], s[n - k]

bench = json.load(open("BENCHMARK.json"))
runs = {}
for line in open(sys.argv[1]):
    side, workload, seed, rnd, result = line.rstrip("\n").split(" ", 4)
    runs[(side, workload, int(seed), int(rnd))] = json.loads(result)

n = int(os.environ["N"])
first = int(os.environ["FIRST"])
layouts = int(os.environ["LAYOUTS"])
keys = [(s, r) for r in range(1, int(os.environ["REPEATS"]) + 1) for s in range(first, first + n)]
cells = len(bench["workloads"]) * len(bench["end_to_end"])
alpha = FAMILY_ALPHA / cells
workloads = {}
for w in (w["name"] for w in bench["workloads"]):
    failed = {}
    for side in ("parent", "change"):
        results = [runs.get((side, w, s, r)) for s, r in keys]
        # A run that died counts as one failed rep.
        failed[side] = sum(1 if x is None else x["failed"] for x in results)
    metrics = {}
    for m in bench["end_to_end"]:
        higher = m["better"] == "higher"
        pairs = []
        for s, r in keys:
            p, c = runs.get(("parent", w, s, r)), runs.get(("change", w, s, r))
            if p is not None and c is not None:
                pv, cv = p["metrics"][m["name"]]["value"], c["metrics"][m["name"]]["value"]
                if pv > 0:
                    pairs.append((s, r, pv, cv))
        if not pairs:
            metrics[m["name"]] = {"verdict": "unresolved", "pairs": []}
            continue
        ratios = [c / p for _, _, p, c in pairs]
        ratio = median(ratios)
        # Round r ran from directory (r - 1) % layouts + 1.
        by_layout = [[c / p for _, r, p, c in pairs if (r - 1) % layouts == l]
                     for l in range(layouts)]
        # Worse by more than the bound, as a ratio of the parent.
        beyond_bound = ratio < 1 - m["bound"] if higher else ratio > 1 + m["bound"]
        interval = sign_interval(ratios, alpha)
        if interval is None:
            lo, hi = -math.inf, math.inf
        else:
            lo, hi = interval
        layout_ratios = [median(xs) if xs else None for xs in by_layout]
        better = lambda x: x is not None and (x > 1 if higher else x < 1)
        worse = lambda x: x is not None and (x < 1 if higher else x > 1)
        all_better = all(better(x) for x in layout_ratios)
        all_worse = all(worse(x) for x in layout_ratios)
        if beyond_bound or (worse(hi if higher else lo) and all_worse):
            verdict = "worse"
        elif better(lo if higher else hi) and all_better:
            verdict = "resolved"
        else:
            verdict = "unresolved"

        metrics[m["name"]] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "ratio": ratio,
            "layout_ratios": layout_ratios,
            "layouts_agree": all_better or all_worse,
            "interval": [lo, hi] if interval else None,
            "half_width": (hi - lo) / 2 if interval else None,
            "verdict": verdict,
            "parent_median": median([p for _, _, p, _ in pairs]),
            "change_median": median([c for _, _, _, c in pairs]),
            "pairs": [{"seed": s, "round": r, "parent": p, "change": c} for s, r, p, c in pairs],
        }
    workloads[w] = {"failed_reps": failed, "metrics": metrics}

doc = {
    "parent": os.environ["PARENT_SHA"],
    "head": os.environ["HEAD_SHA"],
    "head_dirty": os.environ["DIRTY"] == "true",
    "layouts": layouts,
    "same_binary": [w == "true" for w in os.environ["SAME"].split()],
    "seeds": n,
    "first_seed": first,
    "rounds": int(os.environ["REPEATS"]),
    "pairs_per_workload": len(keys),
    "command": "benchmark/run.sh --workload W --seed i --seconds 0 --trace 0, "
               f"both sides built in each of {layouts} source directories of one name "
               "length in turn; round r runs directory (r - 1) % layouts + 1, and a "
               "verdict by the interval needs every directory's median ratio on its side",
    "order": "alternating within a round, flipped each round; both sides on one CPU",
    "cpu": int(os.environ["CPU"]),
    "verdict": f"sign-test interval of the median change/parent ratio, "
               f"level 1 - {FAMILY_ALPHA}/{cells} per cell; resolved or worse by the "
               "interval only when every directory's median ratio lies on that side of 1",
    "host": {
        "cpu_model": os.environ["CPU_MODEL"],
        "cores": int(os.environ["CORES"]),
        "kernel": os.environ["KERNEL"],
        "rustc": os.environ["RUSTC"],
    },
    "workloads": workloads,
}
with open(sys.argv[2], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"{'workload':14} {'metric':12} {'ratio':>7} {'interval':>17} {'±':>6} "
      f"{'verdict':10} {'parent median':>13}  per layout", file=sys.stderr)
for w, v in workloads.items():
    for name, m in v["metrics"].items():
        iv = m.get("interval")
        iv_text = f"{iv[0]:.4f}-{iv[1]:.4f}" if iv else "-"
        hw = f"{m['half_width'] * 100:.2f}%" if iv else "-"
        per = " ".join(f"{x:.4f}" if x is not None else "-" for x in m.get("layout_ratios", []))
        print(f"{w:14} {name:12} {m.get('ratio', float('nan')):7.4f} {iv_text:>17} {hw:>6} "
              f"{m['verdict']:10} {m.get('parent_median', float('nan')):13.6g}  {per}",
              file=sys.stderr)
    print(f"{w:14} failed reps: parent {v['failed_reps']['parent']}, "
          f"change {v['failed_reps']['change']}", file=sys.stderr)
print(f"wrote {sys.argv[2]}", file=sys.stderr)
EOF
