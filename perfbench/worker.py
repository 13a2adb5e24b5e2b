"""One benchmark repetition, in a fresh interpreter started by run.py.

Measures set-up (interpreter start to weightflow + numpy imported and the
config parsed), then calls ``weightflow.cli.main`` once per stage, in order,
into an empty run directory. With ``--rerun-dir`` (a finished run directory of
``--rerun-config``) it then calls each of ``--rerun-stages`` there once:
reruns must rewrite identical bytes, and they add a sample of a short stage's
time. The process stays on the core it started on and runs the pipeline on
one thread (one BLAS thread). Every call is timed by the wall clock, by the
CPU time of this process (user + sys), and by that CPU time scaled to a
reference core speed (see SpeedProbe), which is the time run.py reports. The
JSON result holds all three times of every call, failed calls, peak RSS, CPU
time, ``metrics.txt``, a sha256 per artifact of both directories and, when
traced, the per-layer metrics. run.py sets the BLAS thread count in this
process's environment, so it holds before numpy is imported here.

    python3 perfbench/worker.py --launch-ns N --config C --out DIR \
        --result R.json [--stages a,b,...]
        [--rerun-dir D --rerun-config C2 --rerun-stages a,b,...]
        [--trace-spans S.jsonl] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE_LOOP = 3000
PROBE_EVERY_S = 0.02
PROBE_WINDOW_S = 0.25
# A typical probe time on the 2-vCPU Xeon host the bounds were set on, where
# it ranged from 170 to 230 us as the host's speed swung: scaled times are
# times at that speed.
PROBE_REFERENCE_NS = 200_000


def parse_args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--launch-ns", type=int, required=True,
                    help="time.monotonic_ns() of the parent just before launch")
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--stages", default="")
    ap.add_argument("--rerun-dir", default=None)
    ap.add_argument("--rerun-config", default=None)
    ap.add_argument("--rerun-stages", default="")
    ap.add_argument("--trace-spans", default=None,
                    help="trace the run and write its spans to this file")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def file_digests(run_dir):
    out = {}
    for dirpath, _, files in os.walk(run_dir):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, run_dir)] = hashlib.sha256(f.read()).hexdigest()
    return dict(sorted(out.items()))


def environment(np):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class SpeedProbe:
    """Samples the speed of this process's core while the pipeline runs.

    On a shared host a core's speed swings by up to 1.5x for seconds at a
    time, with other tenants' load on the same physical core and caches, and
    CPU time swings with it: a 60 s run samples too few of these phases to
    average them out. Every PROBE_EVERY_S a helper thread times a fixed
    pure-Python loop by its own CPU clock, on the same core as the pipeline;
    a call's CPU time times PROBE_REFERENCE_NS over the median probe time
    around the call is its time at the reference speed. The probe costs about
    1% of the core. It also slows, and so understates the scaled time, when
    the pipeline itself evicts the probe's caches; it never reverses the
    sign of a change.
    """

    def __init__(self):
        self.samples = []  # (time.monotonic(), probe CPU ns)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.wait(PROBE_EVERY_S):
            start = time.thread_time_ns()
            total = 0
            for i in range(PROBE_LOOP):
                total += i * i
            self.samples.append((time.monotonic(), time.thread_time_ns() - start))

    def stop(self):
        self._stop.set()
        self._thread.join()

    def scale(self, start, end) -> float:
        """Factor from CPU time in [start, end] to time at the reference speed."""
        near = [ns for t, ns in self.samples
                if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        return PROBE_REFERENCE_NS / statistics.median(near or [ns for _, ns in self.samples])


def pin_to_current_cpu():
    """Keep this process on its current core, so the probe shares it."""
    try:
        with open("/proc/self/stat", encoding="ascii") as f:
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError):
        pass


def call_stage(cli, stage, config, out) -> int:
    try:
        return cli.main([stage, "--config", config, "--out", out])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback out of the CLI is a failed operation
        traceback.print_exc()
        return 1


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_current_cpu()
    probe = SpeedProbe()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import weightflow
    import weightflow.cli
    from weightflow.config import parse_config

    cfg = parse_config(args.config)
    setup_cpu_s, setup_end = time.process_time(), time.monotonic()
    if Path(weightflow.__file__).resolve().parent != ROOT / "src" / "weightflow":
        print(f"weightflow imported from {weightflow.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    launch = args.launch_ns / 1e9
    result = {"setup_cpu_s": setup_cpu_s, "setup_wall_s": setup_end - launch,
              "env": environment(np)}
    if args.setup_only:
        probe.stop()
        result["setup_s"] = setup_cpu_s * probe.scale(launch, setup_end)
        _write(args.result, result)
        return 0

    tracer = None
    if args.trace_spans:
        import layers
        from tracer import Tracer
        from weightflow.pipeline import load_task_data

        n_train = len(load_task_data(cfg)[0])
        tracer = Tracer()
        layers.install(tracer)

    own = args.stages.split(",")
    reruns = [s for s in args.rerun_stages.split(",") if s] if args.rerun_dir else []
    calls = []  # (stage, start, end, CPU s, wall s); the first len(own) are own calls
    failed = dict.fromkeys(own, 0)

    def timed(stage, config, out):
        start, cpu = time.monotonic(), time.process_time()
        rc = call_stage(weightflow.cli, stage, config, out)
        cpu, end = time.process_time() - cpu, time.monotonic()
        calls.append((stage, start, end, cpu, end - start))
        failed[stage] += rc != 0

    for stage in own:
        timed(stage, args.config, args.out)
    for rerun in reruns:
        timed(rerun, args.rerun_config, args.rerun_dir)
    probe.stop()
    if tracer is not None:
        tracer.uninstall()

    stages = {s: {"samples": [], "cpu_samples": [], "wall_samples": [],
                  "failed_calls": failed[s]} for s in own}
    for i, (stage, start, end, cpu, wall) in enumerate(calls):
        scaled = cpu * probe.scale(start, end)
        if i < len(own):
            stages[stage].update(first_s=scaled, first_wall_s=wall)
        stages[stage]["samples"].append(scaled)
        stages[stage]["cpu_samples"].append(cpu)
        stages[stage]["wall_samples"].append(wall)
    result["pipeline_s"] = sum(s["first_s"] for s in stages.values())
    result["pipeline_wall_s"] = sum(s["first_wall_s"] for s in stages.values())
    result["setup_s"] = setup_cpu_s * probe.scale(launch, setup_end)
    result["probe_ns"] = statistics.median(ns for _, ns in probe.samples)

    from weightflow.pipeline import read_manifest

    metrics_path = os.path.join(args.out, "metrics.txt")
    times = os.times()
    result.update(
        stages=stages,
        cpu_s=times.user + times.system,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        metrics=read_manifest(metrics_path) if os.path.exists(metrics_path) else {},
        digests=file_digests(args.out),
        rerun_digests=file_digests(args.rerun_dir) if reruns else None,
    )
    if tracer is not None:
        from tracer import surviving_patches

        result["surviving_patches"] = surviving_patches("weightflow")
        result["layer_metrics"] = layers.metrics(tracer, cfg, n_train, args.out)
        tracer.write(args.trace_spans)
    _write(args.result, result)
    return 0


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)


if __name__ == "__main__":
    sys.exit(main())
