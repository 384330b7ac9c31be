#!/usr/bin/env bash
# Records lakebench runs of a parent commit and of the working tree, in
# alternated pairs, as one schema-versioned JSON file; or prints the
# before/after table of two such files.
#
#   scripts/bench_record.sh --pairs N --parent REV [--workload W]... [--seed S]
#                           [--seconds T] [--trace 0|1] [--out FILE]
#   scripts/bench_record.sh --diff A.json B.json
#   scripts/bench_record.sh --rejudge FILE
#
# --pairs: the change is the working tree's tracked files as they stand,
# recorded as the commit they sit on plus the count of uncommitted files.
# Both sides are exported with `git archive`, the parent into
# target/bench_record/parent-<commit>/ and the change (a `git stash create`
# snapshot, or HEAD on a clean tree) into
# target/bench_record/change-<tree>/, both names 12 hex digits long. Each
# export builds and runs in its own directory with its own target
# directory, so the two binaries differ only by code.
# Pair i runs the parent first when i is odd and the change first when it is
# even. Every run's end-to-end metrics, raw.* times, machine.handover_us,
# attempted and failed are kept, and each metric gets both sides' medians
# and quartiles, the change's wins, losses and ties over the pairs, and the
# change of the median in percent. Defaults: every workload of
# BENCHMARK.json, seed 1, 15 s, --trace 0, out target/bench_record/BENCH.json.
# Each workload x end-to-end metric then gets a verdict by the bound rule,
# with `bound` and `better` read from BENCHMARK.json: WORSE when the median
# moved the wrong way by more than the bound (a fraction of the parent's
# median); better when the change won at least 9 in 10 pairs, its median
# moved the right way by more than the parent's quartile spread, and so did
# the median of the metric's raw.* twin (by more than the parent's raw
# quartile spread); unresolved when neither holds and the parent's own
# quartile spread is wider than the bound (a fraction of its median), since
# then the runs cannot tell a move of the bound's size from noise; flat
# otherwise. A row the corrected metric alone would call better reads
# unresolved when the raw twin disagrees. Each row prints its raw twin's
# change in percent and flags `raw disagrees` when the twin did not move
# the way the verdict says (better or WORSE) by more than its parent's
# quartile spread. A metric with no raw twin (space_amp) is judged on
# itself. A row is also flagged `bimodal` when either side's runs split into
# two clusters further apart than the bound: cut at the widest gap between
# neighbouring sorted runs that leaves two or more runs on each side, the
# two clusters' medians differ by more than the bound (a fraction of that
# side's median). Such a row's median lands in one cluster or the other
# from record to record, so read it through its raw twin. A bimodal row
# that would read better or flat reads unresolved; neither flag replaces
# or removes a WORSE. The last line names every WORSE row.
#
# --diff: for every workload and metric in both files, the change side's
# median in A, in B, and the difference in percent.
# --rejudge: reprints the verdict table of a stored record by the rule above.
set -euo pipefail
cd "$(dirname "$0")/.."

die() { echo "bench_record: $*" >&2; exit 2; }

pairs="" parent="" seed=1 seconds=15 trace=0 out="target/bench_record/BENCH.json"
workloads=() diff=() rejudge=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --pairs) pairs="$2"; shift 2 ;;
    --parent) parent="$2"; shift 2 ;;
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --diff) diff=("$2" "$3"); shift 3 ;;
    --rejudge) rejudge="$2"; shift 2 ;;
    *) die "unknown argument '$1'" ;;
  esac
done

# The verdict table of one record file, by the bound rule of the header.
read -r -d '' verdicts <<'EOF' || true
import json, sys
path = sys.argv[1]
record = json.load(open(path))
end_to_end = json.load(open("BENCHMARK.json"))["end_to_end"]
better = {m["name"]: m["better"] for m in end_to_end}
bound = {m["name"]: m["bound"] for m in end_to_end}

def gain(m, s):
    """How far the change's median moved the right way, and the parent's spread."""
    p, c = s["parent"]["median"], s["change"]["median"]
    return (c - p) if better[m] == "higher" else (p - c), s["parent"]["q3"] - s["parent"]["q1"]

def median(xs):
    xs = sorted(xs)
    return (xs[(len(xs) - 1) // 2] + xs[len(xs) // 2]) / 2

def bimodal(m, runs):
    """Whether either side's runs of `m` form two clusters further apart than the bound."""
    for side in ("parent", "change"):
        xs = sorted(r[side]["metrics"][m] for r in runs if r[side] and m in r[side]["metrics"])
        if len(xs) < 4 or not median(xs):
            continue
        cut = max(range(2, len(xs) - 1), key=lambda i: xs[i] - xs[i - 1])
        if median(xs[cut:]) - median(xs[:cut]) > bound[m] * abs(median(xs)):
            return True
    return False

def verdict(m, s, raw):
    """WORSE, better, unresolved or flat, and whether the raw twin disagrees."""
    p = s["parent"]["median"]
    g, spread = gain(m, s)
    rg, rspread = gain(m, raw) if raw else (None, None)
    if p and g / abs(p) < -bound[m]:
        return "WORSE", raw is not None and not -rg > rspread
    pairs_run = s["wins"] + s["losses"] + s["ties"]
    if g > spread and s["wins"] * 10 >= pairs_run * 9:
        if raw is None or rg > rspread:
            return "better", False
        return "unresolved", True
    if p and spread / abs(p) > bound[m]:
        return "unresolved", False
    return "flat", False

print(f"{'workload':<22}{'metric':<18}{'parent':>12}{'change':>12}{'change %':>10}{'raw %':>8}"
      f"{'wins':>6}{'bound':>8}  verdict")
worse = []
for w, wr in record["workloads"].items():
    for m in better:
        s = wr["summary"].get(m)
        if not s:
            continue
        raw = wr["summary"].get("raw." + m)
        pct = s["median_change_pct"]
        pct = f"{pct:+.1f}" if pct is not None else "-"
        raw_pct = raw["median_change_pct"] if raw else None
        raw_pct = f"{raw_pct:+.1f}" if raw_pct is not None else "-"
        v, disagrees = verdict(m, s, raw)
        split = bimodal(m, wr["runs"])
        if split and v in ("better", "flat"):
            v = "unresolved"
        if v == "WORSE":
            worse.append(f"{w} {m}")
        flags = ["raw disagrees"] * disagrees + ["bimodal"] * split
        flag = f" ({', '.join(flags)})" if flags else ""
        print(f"{w:<22}{m:<18}{s['parent']['median']:>12.6g}{s['change']['median']:>12.6g}"
              f"{pct:>10}{raw_pct:>8}{s['wins']:>3}/{len(wr['runs'])}{bound[m] * 100:>6.0f} %  {v}{flag}")
print(f"# record: {path}")
print(f"bench_record: WORSE: {', '.join(worse)}" if worse else "bench_record: no WORSE row")
EOF

if [[ ${#diff[@]} -eq 2 ]]; then
  exec python3 - "${diff[@]}" <<'EOF'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
print(f"{'workload':<22}{'metric':<20}{'A':>14}{'B':>14}{'change':>10}")
for w, wa in a["workloads"].items():
    wb = b["workloads"].get(w)
    if wb is None:
        continue
    for m, sa in wa["summary"].items():
        sb = wb["summary"].get(m)
        if sb is None:
            continue
        x, y = sa["change"]["median"], sb["change"]["median"]
        pct = f"{(y - x) / x * 100:+.1f} %" if x else "-"
        print(f"{w:<22}{m:<20}{x:>14.6g}{y:>14.6g}{pct:>10}")
EOF
fi

if [[ -n "$rejudge" ]]; then
  exec python3 -c "$verdicts" "$rejudge"
fi

[[ -n "$pairs" && -n "$parent" ]] || die "need --pairs N --parent REV, or --diff A B"
parent_commit="$(git rev-parse --verify "$parent^{commit}")"
change_commit="$(git rev-parse HEAD)"
dirty="$(git status --porcelain --untracked-files=no | wc -l)"
if [[ ${#workloads[@]} -eq 0 ]]; then
  mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

snapshot="$(git stash create)"
change_tree="$(git rev-parse "${snapshot:-HEAD}^{tree}")"

work="target/bench_record"
parent_dir="$work/parent-${parent_commit:0:12}"
change_dir="$work/change-${change_tree:0:12}"
runs="$work/runs-$$"
mkdir -p "$runs"
# Exports are named by content, so one that holds its run.sh is reused.
export_tree() {
  local rev="$1" dir="$2"
  if [[ ! -f "$dir/benchmark/run.sh" ]]; then
    rm -rf "$dir"
    mkdir -p "$dir"
    git archive "$rev" | tar -x -C "$dir"
  fi
  (cd "$dir" && CARGO_TARGET_DIR=target cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml)
}
echo "bench_record: building the parent (${parent_commit:0:12}) and the change (tree ${change_tree:0:12})" >&2
export_tree "$parent_commit" "$parent_dir"
export_tree "${snapshot:-HEAD}" "$change_dir"

# One run: the side's run.sh from its own export; stdout kept whole.
run_side() {
  local side="$1" workload="$2" pair="$3" dir
  if [[ "$side" == parent ]]; then dir="$parent_dir"; else dir="$change_dir"; fi
  echo "bench_record: $workload pair $pair $side" >&2
  (cd "$dir" && CARGO_TARGET_DIR=target bash benchmark/run.sh --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace "$trace") \
    > "$runs/$workload.$pair.$side.out" || echo "bench_record: $side run exited non-zero" >&2
}

for workload in "${workloads[@]}"; do
  for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do run_side "$side" "$workload" "$i"; done
  done
done

python3 - "$runs" "$out" "$pairs" "$seed" "$seconds" "$trace" "$parent" "$parent_commit" \
  "$change_commit" "$dirty" "$change_tree" "$(nproc)" "${workloads[@]}" <<'EOF'
import json, os, sys
runs, out, pairs, seed, seconds, trace, rev, pc, cc, dirty, ct, nproc = sys.argv[1:13]
workloads = sys.argv[13:]
pairs = int(pairs)
end_to_end = json.load(open("BENCHMARK.json"))["end_to_end"]
better = {m["name"]: m["better"] for m in end_to_end}
kept = ("raw.setup_s", "raw.throughput_ops_s", "raw.read_p50_ms", "machine.handover_us")

def parse(path):
    """Metrics of one run: the last line's JSON, plus the printed raw.* lines."""
    lines = open(path).read().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None  # the run died before its result line
    metrics = {k: v["value"] for k, v in last.get("metrics", {}).items()}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[1] in kept:
            metrics[parts[1]] = float(parts[2])
    return {"correct": last.get("correct"), "attempted": last.get("attempted"),
            "failed": last.get("failed"), "metrics": metrics}

def quantile(xs, q):
    xs = sorted(xs)
    at = (len(xs) - 1) * q
    lo = int(at)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (at - lo)

def spread(xs):
    return {"median": quantile(xs, 0.5), "q1": quantile(xs, 0.25), "q3": quantile(xs, 0.75)}

record = {
    "schema": "mlake-bench-record/1",
    "parent": {"rev": rev, "commit": pc},
    "change": {"tree_on": cc, "uncommitted_files": int(dirty), "tree": ct},
    "settings": {"pairs": pairs, "seed": int(seed), "seconds": float(seconds),
                 "trace": int(trace), "nproc": int(nproc),
                 "order": "pair i runs the parent first when i is odd"},
    "workloads": {},
}
for w in workloads:
    rows = []
    for i in range(1, pairs + 1):
        p = parse(os.path.join(runs, f"{w}.{i}.parent.out"))
        c = parse(os.path.join(runs, f"{w}.{i}.change.out"))
        rows.append({"pair": i, "first": "parent" if i % 2 else "change", "parent": p, "change": c})
    ok = [r for r in rows if r["parent"] and r["change"]]
    summary = {}
    names = sorted(set().union(*(r["parent"]["metrics"].keys() for r in ok))) if ok else []
    for m in names:
        pv = [r["parent"]["metrics"][m] for r in ok if m in r["parent"]["metrics"] and m in r["change"]["metrics"]]
        cv = [r["change"]["metrics"][m] for r in ok if m in r["parent"]["metrics"] and m in r["change"]["metrics"]]
        if not pv:
            continue
        entry = {"parent": spread(pv), "change": spread(cv)}
        pm = entry["parent"]["median"]
        entry["median_change_pct"] = (entry["change"]["median"] - pm) / pm * 100 if pm else None
        if m in better:
            sign = 1 if better[m] == "higher" else -1
            d = [sign * (c - p) for p, c in zip(pv, cv)]
            entry["better"] = better[m]
            entry["wins"] = sum(x > 0 for x in d)
            entry["losses"] = sum(x < 0 for x in d)
            entry["ties"] = sum(x == 0 for x in d)
            entry["parent_quartile_spread"] = entry["parent"]["q3"] - entry["parent"]["q1"]
        summary[m] = entry
    failed = sum((r[s] or {}).get("failed") or 0 for r in rows for s in ("parent", "change"))
    record["workloads"][w] = {"failed": failed, "summary": summary, "runs": rows}

os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
with open(out, "w") as f:
    json.dump(record, f, indent=1)
    f.write("\n")
EOF
python3 -c "$verdicts" "$out"
rm -rf "$runs"
