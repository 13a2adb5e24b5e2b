"""Compare two run directories file by file.

    python scripts/compare_runs.py RUN_A RUN_B

Hashes every file under both directories with `pipeline.sha256_file` and
prints each path (relative to its run directory) that is missing from B,
extra in B, or whose bytes differ. Exits 0 when the two trees are
byte-identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from weightflow.pipeline import sha256_file  # noqa: E402


def tree_hashes(root) -> dict:
    """Relative path -> sha256 of every file under `root`."""
    out = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            out[os.path.relpath(path, root)] = sha256_file(path)
    return out


def compare(a, b) -> list[str]:
    """One line per missing, extra or differing path, sorted by path."""
    ha, hb = tree_hashes(a), tree_hashes(b)
    lines = []
    for path in sorted(ha.keys() | hb.keys()):
        if path not in hb:
            lines.append(f"missing  {path}")
        elif path not in ha:
            lines.append(f"extra    {path}")
        elif ha[path] != hb[path]:
            lines.append(f"differs  {path}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("run_a")
    ap.add_argument("run_b")
    args = ap.parse_args(argv)
    for d in (args.run_a, args.run_b):
        if not os.path.isdir(d):
            ap.error(f"{d} is not a directory")
    lines = compare(args.run_a, args.run_b)
    for line in lines:
        print(line)
    n = len(tree_hashes(args.run_a))
    print(f"{len(lines)} difference(s) over {n} file(s) in {args.run_a}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
