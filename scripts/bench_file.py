"""Bundle benchmark result files of a parent and a changed checkout into one
BENCH_<label>.json.

    python scripts/bench_file.py LABEL --parent FILE... --change FILE... [--out PATH]

Each FILE is a ``.perfbench/results/<workload>-seed<N>-trace0.json`` written
by ``perfbench/run.py``; it goes into the bundle unmodified, under its file
name, with the machine, library versions, git sha and source digest it
records. A summary gives, per workload and end-to-end metric, the parent's
value, the change's value and the relative change. The bundle is written to
``BENCH_<LABEL>.json`` at the repository root unless ``--out`` names a path.
"""

from __future__ import annotations

import argparse
import json
import os


def load(paths) -> dict:
    """File name -> parsed result file."""
    out = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            out[os.path.basename(path)] = json.load(f)
    return out


def summary(parent: dict, change: dict) -> dict:
    """workload -> metric -> {parent, change, relative}, for every workload
    and metric both sides report."""
    def by_workload(results):
        return {r["env"]["workload"]: r["result"]["metrics"] for r in results.values()}

    before, after = by_workload(parent), by_workload(change)
    out = {}
    for workload in sorted(before.keys() & after.keys()):
        rows = {}
        for name, old in before[workload].items():
            if name in after[workload]:
                a, b = old["value"], after[workload][name]["value"]
                rows[name] = {"unit": old["unit"], "parent": a, "change": b,
                              "relative": (b - a) / a if a else None}
        out[workload] = rows
    return out


def bundle(label: str, parent_paths, change_paths) -> dict:
    parent, change = load(parent_paths), load(change_paths)
    return {"label": label, "summary": summary(parent, change),
            "parent": parent, "change": change}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label")
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    out = args.out or os.path.join(root, f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as f:
        json.dump(bundle(args.label, args.parent, args.change), f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
