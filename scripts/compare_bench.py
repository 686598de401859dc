#!/usr/bin/env python3
"""Bench regression gate: diff fresh *.metrics.json runs against a baseline.

Every bench binary stamps a `*.metrics.json` artifact (see
bench/figure_common.h) whose numeric leaves are seeded-deterministic —
theta/Theta test counts, match counts, page reads, registry counters.
This script flattens both documents to `path -> number` maps, compares
them leaf by leaf, and exits nonzero when a tracked metric drifts past
the threshold. Machine-dependent leaves (wall clock, speedups, helper
counts, process gauges) are ignored by default.

Usage:
  # Seed (or refresh) the committed baseline from fresh artifacts:
  scripts/compare_bench.py --baseline BENCH_baseline.json --seed a.metrics.json b.metrics.json

  # Gate a fresh run against the baseline (CI):
  scripts/compare_bench.py --baseline BENCH_baseline.json a.metrics.json b.metrics.json

  # Docs-only PRs: report drift but always exit 0:
  scripts/compare_bench.py --baseline BENCH_baseline.json --warn-only ...

Exit codes: 0 clean (or --warn-only / --seed), 1 regression past
threshold or missing metric, 2 usage/IO error.
"""

import argparse
import fnmatch
import json
import sys

# Leaves that legitimately differ run-to-run or machine-to-machine.
# Everything else in the artifacts is seeded-deterministic and gated.
DEFAULT_IGNORE = [
    "*wall_ns*",
    "*speedup*",
    "*hardware_threads*",
    "*tasks_stolen*",
    "*peak_rss*",
    "*.process.*",
    "*.commit",
    "*.build_type",
    "*.build_flags",
    "*elapsed*",
    "*_seconds*",
    "*.dropped_events",
    # The service bench's admitted/rejected split is timing-dependent,
    # and that split propagates into nearly every registry counter it
    # stamps; its *invariants* (all replies accounted, bound respected,
    # rejections observed, probes returning the right codes, STATS
    # polling healthy, attribution exact, telemetry overhead bounded)
    # are booleans gated under service_load.invariants instead. The
    # "polled" phase counters (including the STATS poll count) are just
    # as timing-dependent as "load".
    "*.service_load.load.*",
    "*.service_load.polled.*",
    "bench_service_load.registry.*",
]

# Absolute latency is machine-dependent, so latency leaves are ignored
# unless --latency-rel-tol opts in — and then only the stable tail
# markers (p50/p99) and throughput are gated, at the looser tolerance;
# p90/max stay ignored (too noisy even on one machine).
LATENCY_LEAVES = [
    "*latency_ns.*",
    "*throughput_qps*",
]
LATENCY_GATED = [
    "*latency_ns.p50",
    "*latency_ns.p99",
    "*throughput_qps*",
]


def flatten(doc, prefix=""):
    """Yields (dotted_path, leaf) for every scalar leaf of a JSON doc.

    Array elements use their index unless the element is an object with a
    recognizable identity key ("strategy", "threads"+"grid", "threads"),
    in which case that identity names the path — so inserting a row in
    the middle of a sweep doesn't shift every later leaf's path.
    """
    out = {}
    if isinstance(doc, dict):
        for key, val in sorted(doc.items()):
            out.update(flatten(val, f"{prefix}.{key}" if prefix else key))
    elif isinstance(doc, list):
        for i, val in enumerate(doc):
            label = str(i)
            if isinstance(val, dict):
                if "strategy" in val:
                    label = str(val["strategy"])
                elif "threads" in val and "grid" in val:
                    label = f"t{val['threads']}g{val['grid']}"
                elif "threads" in val:
                    label = f"t{val['threads']}"
                elif "n_tuples" in val:
                    label = f"n{val['n_tuples']}"
            out.update(flatten(val, f"{prefix}[{label}]"))
    else:
        out[prefix] = doc
    return out


def is_ignored(path, patterns):
    return any(fnmatch.fnmatch(path, p) for p in patterns)


def latency_tolerance(path, args):
    """Returns (skip, rel_tol) for a leaf, folding in the latency policy.

    Latency leaves are skipped outright unless --latency-rel-tol was
    given; then p50/p99/throughput are compared at that tolerance and the
    remaining latency leaves are still skipped.
    """
    if is_ignored(path, LATENCY_LEAVES):
        if args.latency_rel_tol is not None and is_ignored(path, LATENCY_GATED):
            return False, args.latency_rel_tol
        return True, None
    return False, args.rel_tol


def compare_doc(name, base, fresh, args):
    """Returns a list of (severity, message); severity in {"FAIL", "WARN"}."""
    findings = []
    base_flat = flatten(base)
    fresh_flat = flatten(fresh)

    for path, base_val in sorted(base_flat.items()):
        full = f"{name}.{path}"
        if is_ignored(full, args.ignore):
            continue
        skip, rel_tol = latency_tolerance(full, args)
        if skip:
            continue
        if path not in fresh_flat:
            findings.append(("FAIL", f"{full}: in baseline but missing from fresh run"))
            continue
        fresh_val = fresh_flat[path]
        if isinstance(base_val, bool) or isinstance(fresh_val, bool):
            if bool(base_val) != bool(fresh_val):
                findings.append(("FAIL", f"{full}: {base_val} -> {fresh_val}"))
        elif isinstance(base_val, (int, float)) and isinstance(fresh_val, (int, float)):
            if base_val == fresh_val:
                continue
            denom = max(abs(base_val), abs(fresh_val), 1e-12)
            rel = abs(fresh_val - base_val) / denom
            if rel > rel_tol:
                findings.append(
                    ("FAIL",
                     f"{full}: {base_val} -> {fresh_val} "
                     f"(rel drift {rel:.2%}, tol {rel_tol:.2%})"))
        elif base_val != fresh_val:
            findings.append(("FAIL", f"{full}: {base_val!r} -> {fresh_val!r}"))

    for path in sorted(set(fresh_flat) - set(base_flat)):
        full = f"{name}.{path}"
        if is_ignored(full, args.ignore) or latency_tolerance(full, args)[0]:
            continue
        findings.append(
            ("WARN", f"{full}: new metric not in baseline "
                     f"(= {fresh_flat[path]!r}; re-seed to track it)"))
    return findings


def load_fresh(paths):
    docs = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        name = doc.get("bench")
        if not name:
            print(f"error: {path} has no top-level \"bench\" key", file=sys.stderr)
            sys.exit(2)
        docs[name] = doc
    return docs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", nargs="+", metavar="METRICS_JSON",
                        help="fresh *.metrics.json artifacts to compare")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline file (see --seed)")
    parser.add_argument("--seed", action="store_true",
                        help="write the baseline from the fresh artifacts and exit")
    parser.add_argument("--warn-only", action="store_true",
                        help="report drift but always exit 0 (docs-only PRs)")
    parser.add_argument("--rel-tol", type=float, default=1e-6,
                        help="relative drift tolerated per numeric leaf "
                             "(default %(default)s — counters are exact)")
    parser.add_argument("--latency-rel-tol", type=float, default=None,
                        metavar="FRAC",
                        help="gate p50/p99 latency and throughput leaves at "
                             "this relative tolerance (e.g. 0.5 = 50%%); "
                             "default: latency leaves are ignored entirely "
                             "(absolute latency is machine-dependent)")
    parser.add_argument("--ignore", action="append", default=list(DEFAULT_IGNORE),
                        metavar="GLOB",
                        help="additional path glob to ignore (repeatable)")
    args = parser.parse_args()

    try:
        fresh_docs = load_fresh(args.fresh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.seed:
        with open(args.baseline, "w") as f:
            json.dump({"benches": fresh_docs}, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"seeded {args.baseline} from {len(fresh_docs)} artifact(s): "
              + ", ".join(sorted(fresh_docs)))
        return 0

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read baseline: {err}", file=sys.stderr)
        return 2
    benches = baseline.get("benches", {})

    findings = []
    compared = 0
    for name, fresh in sorted(fresh_docs.items()):
        if name not in benches:
            findings.append(("WARN", f"{name}: not in baseline (re-seed to track it)"))
            continue
        compared += 1
        findings.extend(compare_doc(name, benches[name], fresh, args))

    fails = [m for sev, m in findings if sev == "FAIL"]
    warns = [m for sev, m in findings if sev == "WARN"]
    for m in fails:
        print(f"FAIL {m}")
    for m in warns:
        print(f"warn {m}")
    print(f"compared {compared} bench(es) against {args.baseline}: "
          f"{len(fails)} regression(s), {len(warns)} warning(s)")

    if fails and not args.warn_only:
        return 1
    if fails:
        print("(--warn-only: exiting 0 despite regressions)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
