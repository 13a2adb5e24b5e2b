#!/usr/bin/env python3
"""Flagship Iris experiment: 50 MLPs [4,16,3], Re-Basin canonicalization,
flow matching at hidden width 256, 50 generated networks.

Usage: python scripts/run_iris_pipeline.py [--out DIR] [--quick]

--quick shrinks the population and flow iterations for a fast sanity run.
"""

import argparse
import os
import sys

from weightflow.cli import main as cli_main

FULL = """\
[run]
task = iris
seed = 0

[arch]
layer_dims = 4,16,3

[population]
size = {size}
base_seed = 100
optimizer = adam
learning_rate = 1e-3
batch_size = 16
epochs = 100

[canonicalize]
mode = rebasin

[flow]
hidden_dim = 256
time_embed_dim = 4
dropout = 0.4
iterations = {iters}

[generate]
count = {count}
"""


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="runs/iris")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    size, count, iters = (6, 6, 500) if args.quick else (50, 50, 30000)
    os.makedirs(args.out, exist_ok=True)
    cfg_path = os.path.join(args.out, "config.ini")
    with open(cfg_path, "w", encoding="utf-8") as f:
        f.write(FULL.format(size=size, count=count, iters=iters))
    rc = cli_main(["run", "--config", cfg_path, "--out", args.out])
    if rc == 0:
        with open(os.path.join(args.out, "report.txt"), encoding="utf-8") as f:
            print(f.read())
    return rc


if __name__ == "__main__":
    sys.exit(main())
