#!/usr/bin/env python3
"""Compare two sets of perfbench result records, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--spec BENCHMARK.json]

Each file holds the benchmark's standard output, appended run after
run: every run prints its full record (with a "workload" key) just
before its result line; only the records are read. BASE is usually
the parent commit and NEW the change, measured with alternating runs.

For every workload the end-to-end metrics come first, then the
per-layer ones. Each row shows both sides' median and quartiles (as
statistics.quantiles(values, n=4) gives them), the change of the
medians, and the pair win count: records are paired in file order, and
a pair is won by the side whose value is better in the metric's
declared direction (ties count for neither). End-to-end rows carry a
verdict against the metric's bound from BENCHMARK.json:

  worse       NEW's median is worse than BASE's by more than the bound
  unresolved  BASE's own quartile spread is wider than the bound
  better      NEW won at least nine tenths of the pairs and the medians
              differ by more than BASE's quartile spread
  same        anything else
"""

import argparse
import json
import statistics
import sys


def load_records(path):
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "workload" in rec and "metrics" in rec:
                out.append(rec)
    return out


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def series(records, workload, trace, name):
    return [r["metrics"][name]["value"] for r in records
            if r["workload"] == workload and r["trace"] == trace and name in r["metrics"]]


def wins(base, new, better):
    """Pairs in file order that NEW wins; ties count for neither side."""
    return sum(1 for b, n in zip(base, new) if n != b and (n < b) == (better == "lower"))


def verdict(base, new, better, bound):
    b1, bm, b3 = quartiles(base)
    _, nm, _ = quartiles(new)
    if bm == 0:
        return "-"
    worse = (nm - bm) / bm if better == "lower" else (bm - nm) / bm
    spread = (b3 - b1) / bm
    won = wins(base, new, better)
    pairs = min(len(base), len(new))
    if worse > bound:
        return "worse"
    if spread > bound:
        return "unresolved"
    if pairs and won >= 0.9 * pairs and -worse > spread:
        return "better"
    return "same"


def fmt(x):
    return f"{x:.6g}"


def warn_provenance(label, records):
    commits = sorted({r.get("provenance", {}).get("commit", "?") for r in records})
    print(f"{label}: {len(records)} records, commit {', '.join(commits)}")
    for r in records:
        p = r.get("provenance", {})
        if p.get("host_vcpus", 0) <= 1 and p.get("intra_workers", 1) > 1:
            print(f"  note: {r['workload']} ran {p['intra_workers']} intra-run workers on "
                  f"{p.get('host_vcpus')} vCPU; read no parallel speed-up off it")
            break
    bad = [r for r in records if not r.get("correct", False)]
    if bad:
        print(f"  WARNING: {len(bad)} records failed their output check")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--spec", default="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    base, new = load_records(args.base), load_records(args.new)
    if not base or not new:
        sys.exit("compare: no result records in " + (args.base if not base else args.new))
    warn_provenance("base", base)
    warn_provenance("new ", new)

    order = [w["name"] for w in spec["workloads"]]
    seen = {r["workload"] for r in base + new}
    order += sorted(seen - set(order))
    head = (f"  {'metric':40s} {'base median [q1, q3]':>34s} {'new median [q1, q3]':>34s}"
            f" {'change':>8s} {'wins':>7s}  verdict")
    for w in order:
        if w not in seen:
            continue
        print(f"\n== {w}")
        print(head)
        for trace, group in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            for m in group:
                b = series(base, w, trace, m["name"])
                n = series(new, w, trace, m["name"])
                if not b or not n:
                    continue
                b1, bm, b3 = quartiles(b)
                n1, nm, n3 = quartiles(n)
                change = f"{(nm - bm) / bm * 100:+.1f}%" if bm else "-"
                won = wins(b, n, m["better"])
                v = verdict(b, n, m["better"], m["bound"]) if trace == 0 else ""
                pairs = f"{won}/{min(len(b), len(n))}"
                print(f"  {m['name'] + ' (' + m['unit'] + ')':40s}"
                      f" {fmt(bm) + ' [' + fmt(b1) + ', ' + fmt(b3) + ']':>34s}"
                      f" {fmt(nm) + ' [' + fmt(n1) + ', ' + fmt(n3) + ']':>34s}"
                      f" {change:>8s} {pairs:>7s}  {v}")


if __name__ == "__main__":
    main()
