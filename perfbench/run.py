"""weightflow pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Closed loop, one client, one process at a time:
each repetition is a fresh ``perfbench/worker.py`` interpreter that calls
``weightflow.cli.main`` once per stage, in ``run_pipeline`` order, into an
empty run directory, and the next repetition starts only when it has exited.
Repetitions continue until the next one would end after ``--seconds``, with
at least MIN_REPS (QUALITY_SEEDS untraced).

Every workload config is generated from a pipeline seed, and the pipeline
seeds come from ``--seed``: repetition i of an untraced run uses pipeline
seed ``SEED_STRIDE * seed + i``, so the run scores QUALITY_SEEDS independent
populations and flows, and every repetition after the first also reruns, in
the first one's run directory, the stages that took less than SHORT_STAGE_S
there. A traced run uses pipeline seed ``SEED_STRIDE * seed`` in every
repetition, so whole run directories can be compared between them.

``--trace 0`` reports the end-to-end metrics. The worker runs the pipeline
on one thread, pinned to one core. A stage's time is its CPU time (user +
sys) scaled to a reference core speed by a probe that shares the core (see
worker.SpeedProbe): on this kind of shared host a core's speed swings by up
to 1.5x for seconds at a time, which neither wall nor CPU time averages out
within a run. The raw CPU and wall times are kept in the result file, and the
traced run reports the wall time as ``pipeline.wall_s``. Set-up time is the
scaled CPU time of a fresh worker, the median over SETUP_PROBES set-up-only
launches and every repetition; a stage's time is the median of all its calls;
``pipeline_s`` and peak RSS are medians over repetitions; the quality guards
from ``metrics.txt`` are medians over the first QUALITY_SEEDS repetitions,
one per pipeline seed, because on the 30-point Iris test split one seed's
max-IoU ranged from 0.42 to 0.88 over 70 seeds.
``--trace 1`` makes the first repetition untraced and traces the rest with
wrappers around every public function of each weightflow module (see
layers.py), and reports the per-layer metrics.

An operation is one CLI stage call. It fails on a nonzero exit code, on a
``generated_count`` other than the configured count (generate), a non-finite
value in ``metrics.txt`` (evaluate), or artifacts whose sha256 differs from
an earlier repetition of the same pipeline seed or changes on a rerun (the
stage that wrote them).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The whole result,
with the machine and library versions, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

STAGES = ("make-population", "canonicalize", "fit-pca", "train-flow",
          "generate", "evaluate", "report")
# run_pipeline skips canonicalize when its mode is off; so does the benchmark.
NO_CANONICALIZE = tuple(s for s in STAGES if s != "canonicalize")

# One BLAS thread: tiny matmuls run faster and steadier on one thread than on
# two (iris generate took 0.57 s against 1.57 s on a 2-core OpenBLAS host,
# with identical output bytes).
BLAS_THREADS = 1
MIN_REPS = 2
QUALITY_SEEDS = 4
SEED_STRIDE = 1000
SETUP_PROBES = 2
# Untraced repetitions after the first rerun the stages under a second
# (generate, evaluate and report on iris) in the first one's run directory:
# the rerun must rewrite identical bytes, and it adds a sample of the stage.
SHORT_STAGE_S = 1.0
HARD_LIMIT_S = 170.0

# Which stage wrote an artifact, by path prefix inside the run directory.
ARTIFACT_STAGE = (("population", "make-population"), ("aligned", "canonicalize"),
                  ("canonicalize.", "canonicalize"), ("pca.", "fit-pca"),
                  ("flow.", "train-flow"), ("generate", "generate"),
                  ("metrics.txt", "evaluate"), ("report.", "report"),
                  ("diversity.csv", "report"))

# Workload configs. The pipeline seed picks the data split or blobs draw, the
# population seeds and the flow and sampling streams; every seed does the same
# work. Choices made so that the quality guards hold steady across seeds:
# - iris-flagship keeps the paper's population, flow width and dropout. Flow
#   training is cut to 2000 iterations at a learning rate of 2e-3: at 1500
#   iterations and 5e-4 the generated networks were near copies of one
#   network, and the quartile spread of max-IoU across seeds was 0.30 of its
#   median, against about 0.17 here.
# - bn-pca-sample: 200 blobs per class at spread 4.0 give a 120-point test
#   set with enough errors for a steady accuracy and IoU. Canonicalize is
#   off, so it runs no LAP at all.
IRIS = """\
[run]
task = iris
seed = {seed}

[arch]
layer_dims = 4,16,3

[population]
size = 50
base_seed = {base_seed}

[canonicalize]
mode = rebasin

[flow]
hidden_dim = 256
time_embed_dim = 4
dropout = 0.4
iterations = 2000
learning_rate = 2e-3

[generate]
count = 50
"""

BN_PCA = """\
[run]
task = blobs
seed = {seed}

[data]
blobs_classes = 3
blobs_per_class = 200
blobs_dim = 8
blobs_spread = 4.0

[arch]
layer_dims = 8,16,16,3
bn = 1,1

[population]
size = 25
base_seed = {base_seed}
epochs = 10

[canonicalize]
mode = off

[pca]
mode = dual
exact_eigen = 1

[flow]
hidden_dim = 128
iterations = 1500

[generate]
count = 400
"""

# name -> (config template, CLI stages in run_pipeline order)
WORKLOADS = {
    "iris-flagship": (IRIS, STAGES),
    "bn-pca-sample": (BN_PCA, NO_CANONICALIZE),
}

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "population_s": "s",
    "fit_s": "s", "generate_s": "s", "evaluate_s": "s",
    "peak_rss_mb": "MB", "gen_accuracy_mean": "fraction",
    "gen_max_iou_mean": "fraction",
}


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in BENCHMARK.json order."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def pipeline_seed(seed: int, rep: int) -> int:
    return SEED_STRIDE * seed + rep


def workload_config(name: str, pseed: int) -> str:
    return WORKLOADS[name][0].format(seed=pseed, base_seed=1000 + 100 * pseed)


def blas_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def git_sha():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "weightflow").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    """Launches worker interpreters and keeps their results."""

    def __init__(self, work: Path, env: dict, hard_deadline: float):
        self.work = work
        self.env = env
        self.hard_deadline = hard_deadline
        self.launches = 0

    def launch(self, config, *extra, trace=False, keep=False):
        """Run one worker; returns (result or None, its run directory)."""
        k = self.launches
        self.launches += 1
        result = self.work / f"launch{k}.json"
        out = self.work / f"run{k}"
        cmd = [sys.executable, str(WORKER), "--config", str(config),
               "--out", str(out), "--result", str(result), *extra]
        if trace:
            cmd += ["--trace-spans", str(self.work / f"launch{k}.spans.jsonl")]
        timeout = max(1.0, self.hard_deadline - time.monotonic())
        log = self.work / f"launch{k}.log"
        with open(log, "w", encoding="utf-8") as f:
            try:
                subprocess.run(cmd + ["--launch-ns", str(time.monotonic_ns())],
                               stdout=f, stderr=subprocess.STDOUT, env=self.env,
                               timeout=timeout, check=False, cwd=ROOT)
            except subprocess.TimeoutExpired:
                print(f"worker timed out after {timeout:.0f} s", file=f)
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        if not result.exists():
            sys.stderr.write(log.read_text(encoding="utf-8")[-4000:])
            return None, out
        with open(result, encoding="utf-8") as f:
            data = json.load(f)
        if trace:
            data["spans_path"] = str(self.work / f"launch{k}.spans.jsonl")
        return data, out


def artifact_stage(relpath: str) -> str:
    for prefix, stage in ARTIFACT_STAGE:
        if relpath.startswith(prefix):
            return stage
    return STAGES[-1]


def stage_digests(digests: dict) -> dict:
    out = {s: [] for s in STAGES}
    for path, sha in digests.items():
        out[artifact_stage(path)].append((path, sha))
    return out


def finite_values(metrics: dict) -> bool:
    for value in metrics.values():
        for part in value.split(","):
            try:
                number = float(part)
            except ValueError:
                continue
            if not math.isfinite(number):
                return False
    return True


def operations(rep, reference, rerun_reference, stages, generate_count: int):
    """(attempted, failed) CLI stage calls of one repetition.

    ``reference`` is an earlier repetition of the same pipeline seed, or None;
    ``rerun_reference`` is the repetition whose run directory was rerun. A
    failed output check counts once against the stage it blames, unless that
    stage already has a failed call.
    """
    if rep is None:
        return len(stages), len(stages)
    calls = rep["stages"]
    failed = set()
    rerun_failed = set()
    metrics = rep["metrics"]
    if not metrics:
        failed.add("evaluate")
    else:
        if metrics.get("generated_count") != str(generate_count):
            failed.add("generate")
        if not finite_values(metrics):
            failed.add("evaluate")
    if reference is not None:
        ref = stage_digests(reference["digests"])
        mine = stage_digests(rep["digests"])
        failed |= {s for s in STAGES if mine[s] != ref[s]}
    if rerun_reference is not None and rep.get("rerun_digests") is not None:
        ref = stage_digests(rerun_reference["digests"])
        reran = stage_digests(rep["rerun_digests"])
        rerun_failed = {s for s in STAGES if reran[s] != ref[s]}
    blamed = {s for s in failed | rerun_failed
              if s in calls and not calls[s]["failed_calls"]}
    return (sum(len(c["samples"]) for c in calls.values()),
            sum(c["failed_calls"] for c in calls.values()) + len(blamed))


def generate_count(config_text: str) -> int:
    section = None
    for line in config_text.splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[generate]" and line.startswith("count"):
            return int(line.partition("=")[2])
    raise ValueError("config has no [generate] count")


def end_to_end(reps, quality_reps, setups) -> dict:
    def med(fn, among=reps):
        return statistics.median(fn(r) for r in among)

    def stage(*names):
        return sum(statistics.median(x for r in reps for x in r["stages"][n]["samples"])
                   for n in names)

    def quality(key):
        return med(lambda r: float(r["metrics"].get(key, 0.0)), quality_reps)

    return {
        "setup_s": statistics.median(setups),
        "pipeline_s": med(lambda r: r["pipeline_s"]),
        "population_s": stage("make-population"),
        "fit_s": stage("fit-pca", "train-flow"),
        "generate_s": stage("generate"),
        "evaluate_s": stage("evaluate", "report"),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
        "gen_accuracy_mean": quality("generated_accuracy_mean"),
        "gen_max_iou_mean": quality("max_iou_mean"),
    }


def per_layer(untraced, traced) -> dict:
    names = traced[0]["layer_metrics"].keys()
    out = {n: statistics.median(r["layer_metrics"][n] for r in traced) for n in names}
    out["canonicalize_s"] = statistics.median(
        r["stages"].get("canonicalize", {}).get("first_s", 0.0) for r in untraced)
    out["process.cpu_s"] = statistics.median(r["cpu_s"] for r in untraced)
    out["pipeline.wall_s"] = statistics.median(r["pipeline_wall_s"] for r in untraced)
    out["tracing_overhead_s"] = (statistics.median(r["pipeline_s"] for r in traced)
                                 - statistics.median(r["pipeline_s"] for r in untraced))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "weightflow" / "cli.py").is_file():
        print(f"no weightflow sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    t0 = time.monotonic()
    deadline = t0 + args.seconds
    errors = []
    if args.trace:
        from tracer import self_test
        errors += [f"tracer self-test: {e}" for e in self_test()]

    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    bench_dir = ROOT / ".perfbench"
    work = bench_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results_dir = bench_dir / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        stages = WORKLOADS[args.workload][1]
        runner = Runner(work, blas_env(threads), t0 + HARD_LIMIT_S)

        def config_path(pseed):
            path = work / f"config{pseed}.ini"
            if not path.exists():
                path.write_text(workload_config(args.workload, pseed), encoding="utf-8")
            return path

        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe, _ = runner.launch(config_path(pipeline_seed(args.seed, 0)),
                                         "--setup-only")
                if probe is None:
                    errors.append("set-up probe failed")
                    break
                setups.append(probe["setup_s"])

        min_reps = MIN_REPS if args.trace else max(MIN_REPS, QUALITY_SEEDS)
        reps, rep_walls, rerun = [], [], []
        while True:
            pseed = pipeline_seed(args.seed, 0 if args.trace else len(reps))
            extra = ["--stages", ",".join(stages)]
            if reps and not args.trace and rerun:
                extra += ["--rerun-dir", str(first_dir),
                          "--rerun-config", str(config_path(pipeline_seed(args.seed, 0))),
                          "--rerun-stages", ",".join(rerun)]
            start = time.monotonic()
            result, out = runner.launch(config_path(pseed), *extra,
                                        trace=bool(args.trace and reps), keep=not reps)
            rep_walls.append(time.monotonic() - start)
            if result is not None:
                result["pipeline_seed"] = pseed
            if not reps:
                first_dir = out
                if result is not None:
                    rerun = [s for s in stages
                             if result["stages"][s]["first_s"] < SHORT_STAGE_S]
            reps.append(result)
            now = time.monotonic()
            if len(reps) >= min_reps and now + max(rep_walls) > deadline:
                break
            if now + max(rep_walls) > t0 + HARD_LIMIT_S:
                break
        config_text = workload_config(args.workload, pipeline_seed(args.seed, 0))
        return report(args, reps, setups, errors, config_text, stages, threads,
                      nproc, results_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(args, reps, setups, errors, config_text, stages, threads, nproc,
           results_dir) -> int:
    count = generate_count(config_text)
    ops = []
    for i, r in enumerate(reps):
        same_seed = [e for e in reps[:i]
                     if e is not None and r is not None
                     and e["pipeline_seed"] == r["pipeline_seed"]]
        ops.append(operations(r, same_seed[0] if same_seed else None, reps[0],
                              stages, count))
    attempted, failed = sum(a for a, _ in ops), sum(f for _, f in ops)
    ok = [r for r in reps if r is not None]
    min_reps = MIN_REPS if args.trace else max(MIN_REPS, QUALITY_SEEDS)
    if len(ok) < min_reps:
        errors.append(f"only {len(ok)} of {len(reps)} repetitions produced a result")
    for i, r in enumerate(reps):
        if r is not None and r.get("surviving_patches"):
            errors.append(f"repetition {i}: tracer left {r['surviving_patches']}")
    if not ok:
        print("no repetition produced a result", file=sys.stderr)
        return 1

    if args.trace:
        untraced = [r for r in reps[:1] if r is not None]
        traced = [r for r in reps[1:] if r is not None]
        if not untraced or not traced:
            print("trace run needs one untraced and one traced repetition",
                  file=sys.stderr)
            return 1
        units = per_layer_units()
        values = per_layer(untraced, traced)
        missing = sorted(set(units) - set(values))
        if missing:
            errors.append(f"per-layer metrics not measured: {missing}")
        metrics = {n: {"value": values.get(n, 0), "unit": u} for n, u in units.items()}
        spans = traced[-1].pop("spans_path")
        shutil.copyfile(spans, results_dir / f"{args.workload}.spans.jsonl")
    else:
        quality_reps = [r for r in reps[:QUALITY_SEEDS] if r is not None]
        values = end_to_end(ok, quality_reps, setups + [r["setup_s"] for r in ok])
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}

    env = dict(ok[0]["env"], blas_threads_pinned=threads, nproc=nproc,
               git_sha=git_sha(), source_sha256=source_digest(),
               seed=args.seed, workload=args.workload, seconds=args.seconds,
               trace=args.trace, repetitions=len(reps), setup_samples=len(setups) + len(ok),
               pipeline_seeds=[r["pipeline_seed"] for r in ok],
               timing="worker CPU time scaled to the reference core speed",
               loop="closed loop, one client, one process")
    correct = failed == 0 and not errors
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as f:
        json.dump({"env": env, "errors": errors, "result": line, "repetitions": reps},
                  f, indent=1)

    for e in errors:
        print(f"error: {e}")
    width = max(len(n) for n in metrics)
    kind = "per-layer (traced)" if args.trace else "end-to-end, median of repetitions"
    print(f"{args.workload} seed={args.seed}: {kind}; {len(ok)} repetitions; "
          f"{failed} of {attempted} stage calls failed")
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:>14.6g}  {m['unit']}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
