"""The layers the traced run wraps, and the per-layer metrics drawn from them.

A layer is one weightflow module. Every public function in it becomes a span
named ``<layer>.<function>``; a few spans carry attributes read from their
arguments or results (LAP width, sweeps, bytes written or hashed, flow loss).
"""

from __future__ import annotations

import importlib
import math
import os
import statistics
from collections import defaultdict

from tracer import layer_totals
from weightflow.pipeline import read_manifest

LAYERS = ("cli", "pipeline", "data", "nn_core", "canonicalize", "pca", "flow",
          "bn_recalib", "metrics", "checkpoint_io")

# CLI stage name -> pipeline function, in run_pipeline order.
STAGE_FUNCTIONS = {
    "make-population": "stage_make_population",
    "canonicalize": "stage_canonicalize",
    "fit-pca": "stage_fit_pca",
    "train-flow": "stage_train_flow",
    "generate": "stage_generate",
    "evaluate": "stage_evaluate",
    "report": "stage_report",
}

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _flow_note(args, kwargs, model):
    tail = model.loss_history[-100:]
    return {"steps": len(model.loss_history),
            "final_loss": sum(tail) / len(tail) if tail else 0.0}


NOTES = {
    "canonicalize.solve_lap_max":
        lambda a, k, r: {"n": len(_arg(a, k, 0, "score"))},
    "canonicalize.weight_match":
        lambda a, k, r: {"sweeps": len(r.objective_trace),
                         "objective": float(r.objective_trace[-1])},
    "checkpoint_io.save_checkpoint":
        lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "pipeline.sha256_file":
        lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "flow.train_flow": _flow_note,
}


def install(tracer):
    modules = {name: importlib.import_module(f"weightflow.{name}") for name in LAYERS}
    tracer.install("weightflow", modules, NOTES)


def _p50(values):
    return statistics.median(values) if values else 0.0


def _tail(values):
    """Highest order statistic with at least ten samples above it (max if n < 11)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def metrics(tracer, cfg, n_train: int, run_dir) -> dict:
    """Per-layer metrics of one traced repetition."""
    spans = tracer.spans
    selfs = tracer.self_times()
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def seconds(idx):
        return [spans[i][2] - spans[i][1] for i in idx]

    def ms(idx):
        return [(spans[i][2] - spans[i][1]) * 1e3 for i in idx]

    def attrs(name, key):
        return [spans[i][4][key] for i in by_name[name] if spans[i][4]]

    def under(i, ancestor):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == ancestor:
                return True
            p = spans[p][3]
        return False

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    m = {}
    totals = layer_totals(tracer)
    for layer in LAYERS:
        calls, incl, own = totals.get(layer, (0, 0.0, 0.0))
        m[f"{layer}.calls"] = calls
        m[f"{layer}.incl_s"] = incl
        m[f"{layer}.self_s"] = own

    # nn_core: population training and evaluation.
    train = by_name["nn_core.train_network"]
    m["nn_core.train_network.calls"] = len(train)
    m["nn_core.train_network.ms_p50"] = _p50(ms(train))
    m["nn_core.train_network.ms_tail"] = _tail(ms(train))
    hyper = cfg.train_hyper
    steps = cfg.population_size * hyper.epochs * math.ceil(n_train / hyper.batch_size)
    train_self = sum(selfs[i] for i in train)
    m["nn_core.train_step_us"] = train_self / steps * 1e6 if steps else 0.0
    evals = len(by_name["nn_core.evaluate"])
    m["nn_core.evaluate.calls"] = evals
    m["nn_core.evaluate.per_checkpoint"] = evals / (cfg.population_size + cfg.generate_count)

    # canonicalize: LAP solves by width, weight matching, sweeps, objective.
    lap = by_name["canonicalize.solve_lap_max"]
    m["canonicalize.lap.calls"] = len(lap)
    n16 = ms([i for i in lap if spans[i][4] and spans[i][4]["n"] == 16])
    m["canonicalize.lap_n16.ms_p50"] = _p50(n16)
    m["canonicalize.lap_n16.ms_tail"] = _tail(n16)
    match = ms(by_name["canonicalize.weight_match"])
    m["canonicalize.weight_match.ms_p50"] = _p50(match)
    m["canonicalize.weight_match.ms_tail"] = _tail(match)
    m["canonicalize.sweeps_mean"] = mean(attrs("canonicalize.weight_match", "sweeps"))
    m["canonicalize.objective_mean"] = mean(attrs("canonicalize.weight_match", "objective"))

    # flow: training steps and sampling.
    step = by_name["flow.fm_training_step"]
    m["flow.train_step.ms_p50"] = _p50(ms(step))
    m["flow.train_step.ms_tail"] = _tail(ms(step))
    m["flow.train_step.self_ms_p50"] = _p50([selfs[i] * 1e3 for i in step])
    m["flow.loss_and_grads.ms_p50"] = _p50(ms(by_name["flow.fm_loss_and_grads"]))
    m["flow.steps"] = sum(attrs("flow.train_flow", "steps"))
    m["flow.final_loss"] = mean(attrs("flow.train_flow", "final_loss"))
    forward = [i for i in by_name["flow.flow_forward"] if under(i, "flow.sample")]
    m["flow.sample_forward.calls"] = len(forward)
    m["flow.sample_forward.ms_p50"] = _p50(ms(forward))
    m["flow.rk4_s"] = sum(seconds(by_name["flow.rk4_integrate"]))

    # pca
    fits = [i for name in ("pca.fit_standard", "pca.fit_incremental", "pca.fit_dual")
            for i in by_name[name]]
    m["pca.fit.calls"] = len(fits)
    m["pca.fit_ms"] = sum(ms(fits))
    m["pca.transform_ms"] = sum(ms(by_name["pca.transform"]))
    m["pca.inverse_transform_ms"] = sum(ms(by_name["pca.inverse_transform"]))
    pca_path = os.path.join(run_dir, "pca.manifest")
    pca_manifest = read_manifest(pca_path) if os.path.exists(pca_path) else {}
    m["pca.explained_variance_ratio"] = float(pca_manifest.get("explained_variance_ratio", 0.0))

    # bn_recalib
    recal = ms(by_name["bn_recalib.recalibrate"])
    m["bn_recalib.recalibrate.calls"] = len(recal)
    m["bn_recalib.recalibrate.ms_p50"] = _p50(recal)
    m["bn_recalib.recalibrate.ms_tail"] = _tail(recal)

    # metrics
    m["metrics.max_iou_ms"] = sum(ms(by_name["metrics.max_iou"]))
    m["metrics.distribution_distances_ms"] = sum(ms(by_name["metrics.distribution_distances"]))
    m["metrics.wrong_set.calls"] = len(by_name["metrics.wrong_set"])

    # pipeline: stage time no wrapped call covers, hashing, data loading.
    for stage, fn in STAGE_FUNCTIONS.items():
        m[f"pipeline.{stage}.self_s"] = sum(selfs[i] for i in by_name[f"pipeline.{fn}"])
    m["pipeline.sha256_file.calls"] = len(by_name["pipeline.sha256_file"])
    m["pipeline.bytes_hashed"] = sum(attrs("pipeline.sha256_file", "bytes"))
    m["pipeline.load_task_data.calls"] = len(by_name["pipeline.load_task_data"])
    m["data.load_ms"] = totals.get("data", (0, 0.0, 0.0))[1] * 1e3

    # checkpoint_io
    save = ms(by_name["checkpoint_io.save_checkpoint"])
    load = ms(by_name["checkpoint_io.load_checkpoint"])
    m["checkpoint_io.save.calls"] = len(save)
    m["checkpoint_io.save.ms_p50"] = _p50(save)
    m["checkpoint_io.load.calls"] = len(load)
    m["checkpoint_io.load.ms_p50"] = _p50(load)
    m["checkpoint_io.bytes_written"] = sum(attrs("checkpoint_io.save_checkpoint", "bytes"))
    return m
