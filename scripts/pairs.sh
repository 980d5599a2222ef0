#!/usr/bin/env bash
# Alternating parent/change pairs on the repository benchmark, written
# to a JSON file that is committed with the change, so that the speed
# and memory of every PR stay comparable in git.
#
#   scripts/pairs.sh PARENT [N] [OUT] [FIRST]
#
# Builds PARENT (any commit-ish) in a temporary `git worktree` and the
# current checkout in place, into two target directories of their own,
# then runs N pairs (default 10) per workload of BENCHMARK.json, each
# side as
#
#   benchmark/run.sh --workload W --seed i --trace 0
#
# with the same seed i on both sides, i = FIRST .. FIRST+N-1 (FIRST
# defaults to 1), the parent first in odd pairs and the change first in
# even ones. A claim is re-checked on seeds it was not measured on with
# FIRST, e.g. the held-out seeds 41-45:
#
#   scripts/pairs.sh PARENT 5 heldout.json 41
#
# OUT defaults (also when given as "") to BENCH_PR<NN>.json at
# the repository root, NN one more than the newest "PR NN" entry of
# PARENT's CHANGES.md (a PR may land as several commits, so no subject
# line need name it). Per workload and end-to-end metric the file holds both
# medians, the parent's interquartile range, the change's wins and
# losses, every pair, and a verdict:
#
#   resolved    the change is better in at least 9 of 10 pairs and its
#               median beats the parent's by more than the parent's IQR
#   worse       the change's median is worse than the parent's by more
#               than the metric's bound, or the mirror image of resolved
#   unresolved  anything else
#
# plus the failed reps of each side and a host fingerprint (CPU model,
# core count, kernel, rustc). Nothing under benchmark/ changes. Each
# run takes the benchmark's own run length (about 30 s), so the default
# is about 40 minutes for four workloads.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD

parent=${1:?usage: scripts/pairs.sh PARENT [N] [OUT] [FIRST]}
n=${2:-10}
first=${4:-1}
parent_sha=$(git rev-parse --verify "$parent^{commit}")
if [ -n "${3:-}" ]; then
    out=$3
else
    last=$(git show "$parent_sha:CHANGES.md" | { grep -oE '^PR [0-9]+' || true; } | tail -1 | cut -d' ' -f2)
    out="BENCH_PR$(( ${last:-0} + 1 )).json"
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
cleanup() {
    git -C "$root" worktree remove --force "$work/parent" 2>/dev/null || true
    git -C "$root" worktree prune
    rm -rf "$work"
}
trap cleanup EXIT
git worktree add --quiet --detach "$work/parent" "$parent_sha"

# The checkout each side builds and runs in.
dir_of() { if [ "$1" = parent ]; then echo "$work/parent"; else echo "$root"; fi; }
build() {
    (cd "$(dir_of "$1")" &&
        CARGO_TARGET_DIR="$work/target-$1" \
            cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2)
}
# One run; appends `side workload seed <last stdout line>` to runs.txt
# (`null` when the run died, which counts as a failed rep).
run() {
    local side=$1 workload=$2 seed=$3 line
    if line=$(cd "$(dir_of "$side")" &&
        CARGO_TARGET_DIR="$work/target-$side" \
            bash benchmark/run.sh --workload "$workload" --seed "$seed" --trace 0 | tail -1); then
        :
    else
        line=null
    fi
    printf '%s %s %s %s\n' "$side" "$workload" "$seed" "${line:-null}" >>"$work/runs.txt"
}

build parent
build change
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
: >"$work/runs.txt"
for pair in $(seq 1 "$n"); do
    seed=$((first + pair - 1))
    for w in $workloads; do
        echo "pair $pair/$n (seed $seed) $w" >&2
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$w" "$seed"
            run change "$w" "$seed"
        else
            run change "$w" "$seed"
            run parent "$w" "$seed"
        fi
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
PARENT_SHA=$parent_sha HEAD_SHA=$(git rev-parse HEAD) DIRTY=$dirty N=$n FIRST=$first \
CPU_MODEL=$cpu_model CORES=$(nproc) KERNEL=$(uname -r) RUSTC=$(rustc --version) \
    python3 - "$work/runs.txt" "$out" <<'EOF'
import json, math, os, sys

def quantiles(xs):
    """Median, q1 and q3 as benchmark/src/stats.rs computes them."""
    s = sorted(xs)
    m = len(s)
    def q(i):
        if m == 1:
            return s[0]
        j = min(max(i * (m + 1) // 4, 1), m - 1)
        delta = i * (m + 1) - j * 4
        return (s[j - 1] * (4 - delta) + s[j] * delta) / 4
    return q(2), q(1), q(3)

bench = json.load(open("BENCHMARK.json"))
runs = {}
for line in open(sys.argv[1]):
    side, workload, seed, result = line.rstrip("\n").split(" ", 3)
    runs[(side, workload, int(seed))] = json.loads(result)

n = int(os.environ["N"])
seeds = range(int(os.environ["FIRST"]), int(os.environ["FIRST"]) + n)
workloads = {}
for w in (w["name"] for w in bench["workloads"]):
    failed = {}
    for side in ("parent", "change"):
        results = [runs.get((side, w, s)) for s in seeds]
        # A run that died counts as one failed rep.
        failed[side] = sum(1 if r is None else r["failed"] for r in results)
    metrics = {}
    for m in bench["end_to_end"]:
        higher = m["better"] == "higher"
        pairs = []
        for s in seeds:
            p, c = runs.get(("parent", w, s)), runs.get(("change", w, s))
            if p is not None and c is not None:
                pairs.append((s, p["metrics"][m["name"]]["value"], c["metrics"][m["name"]]["value"]))
        if not pairs:
            metrics[m["name"]] = {"verdict": "unresolved", "pairs": []}
            continue
        better = lambda a, b: a > b if higher else a < b
        wins = sum(better(c, p) for _, p, c in pairs)
        losses = sum(better(p, c) for _, p, c in pairs)
        pm, pq1, pq3 = quantiles([p for _, p, _ in pairs])
        cm, _, _ = quantiles([c for _, _, c in pairs])
        iqr = pq3 - pq1
        # How much better the change's median is, in the metric's unit.
        gain = cm - pm if higher else pm - cm
        within_bound = -gain / pm <= m["bound"]
        need = math.ceil(0.9 * len(pairs))
        if not within_bound or (losses >= need and -gain > iqr):
            verdict = "worse"
        elif wins >= need and gain > iqr:
            verdict = "resolved"
        else:
            verdict = "unresolved"
        metrics[m["name"]] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent_median": pm,
            "change_median": cm,
            "ratio": cm / pm,
            "parent_iqr": iqr,
            "wins": wins,
            "losses": losses,
            "within_bound": within_bound,
            "verdict": verdict,
            "pairs": [{"seed": s, "parent": p, "change": c} for s, p, c in pairs],
        }
    workloads[w] = {"failed_reps": failed, "metrics": metrics}

doc = {
    "parent": os.environ["PARENT_SHA"],
    "head": os.environ["HEAD_SHA"],
    "head_dirty": os.environ["DIRTY"] == "true",
    "pairs_per_workload": n,
    "first_seed": seeds.start,
    "command": "benchmark/run.sh --workload W --seed i --trace 0",
    "order": "parent first in odd pairs, change first in even pairs",
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
for w, v in workloads.items():
    for name, m in v["metrics"].items():
        print(f"{w:14} {name:12} {m.get('ratio', float('nan')):7.4f} {m['verdict']}", file=sys.stderr)
print(f"wrote {sys.argv[2]}", file=sys.stderr)
EOF
