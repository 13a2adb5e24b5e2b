"""Compare two run directories file by file.

    python scripts/compare_runs.py RUN_A RUN_B

Hashes every file under both directories with `pipeline.sha256_file` and
prints each path (relative to its run directory) that is missing from B,
extra in B, or whose bytes differ; under a differing `metrics.txt` or
`*.manifest`, one indented `key: a -> b` line per key whose value
differs. Exits 0 when the two trees are byte-identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from weightflow.checkpoint_io import parse_pairs  # noqa: E402
from weightflow.pipeline import sha256_file  # noqa: E402


def tree_hashes(root) -> dict:
    """Relative path -> sha256 of every file under `root`."""
    out = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            out[os.path.relpath(path, root)] = sha256_file(path)
    return out


def compare(a, b) -> list[tuple[str, str]]:
    """(status, path) per missing, extra or differing path, sorted by path."""
    ha, hb = tree_hashes(a), tree_hashes(b)
    out = []
    for path in sorted(ha.keys() | hb.keys()):
        if path not in hb:
            out.append(("missing", path))
        elif path not in ha:
            out.append(("extra", path))
        elif ha[path] != hb[path]:
            out.append(("differs", path))
    return out


def row_moves(path_a, path_b) -> list[str]:
    """`key: a -> b` per key whose value differs between two `key=value`
    files (metrics.txt, manifests), in file order, `-` for a missing key;
    none when either file is not `key=value` text."""
    try:
        values = []
        for path in (path_a, path_b):
            with open(path, encoding="utf-8") as f:
                values.append(parse_pairs(f.read()))
    except ValueError:
        return []
    va, vb = values
    keys = list(va) + [key for key in vb if key not in va]
    return [f"{key}: {va.get(key, '-')} -> {vb.get(key, '-')}"
            for key in keys if va.get(key) != vb.get(key)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("run_a")
    ap.add_argument("run_b")
    args = ap.parse_args(argv)
    for d in (args.run_a, args.run_b):
        if not os.path.isdir(d):
            ap.error(f"{d} is not a directory")
    differences = compare(args.run_a, args.run_b)
    for status, path in differences:
        print(f"{status:<8} {path}")
        if status == "differs" and (path.endswith(".manifest")
                                    or os.path.basename(path) == "metrics.txt"):
            for move in row_moves(os.path.join(args.run_a, path),
                                  os.path.join(args.run_b, path)):
                print(f"    {move}")
    n = len(tree_hashes(args.run_a))
    print(f"{len(differences)} difference(s) over {n} file(s) in {args.run_a}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
