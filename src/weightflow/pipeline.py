"""Pipeline stages: train population -> canonicalize -> PCA -> flow ->
generate -> evaluate -> report, run by `run_stage` from the stage `TABLE`.

A stage function writes nothing: from the config and its loaded inputs it
returns (one object per file, manifest rows). A stage's manifest records,
as `section.key` rows (`config.section_rows`), every key of the config
sections its `TABLE` entry names but `[run] out_dir`; each key is recorded
by one stage, `run.seed` by make-population, which every other stage has
upstream. Before a stage runs, `run_stage` walks the manifest chain above
it: each manifest must record the current value of each of its keys and
exactly the `input.*` rows the config implies, each the sha256 of that
upstream manifest as it is now, else DataError names the furthest-upstream
stage to rerun. Each input is then loaded and checked against its
manifest's `sha256` row. Outputs are saved under temporary names, the
manifest last, and moved into place with `os.replace` in that order; on
failure the temporary files are removed. Reruns rewrite byte-identical
files."""

from __future__ import annotations

import contextlib
import hashlib
import os
from typing import Callable, NamedTuple

import numpy as np

from . import pca as pca_mod
from .bn_recalib import recalibrate
from .canonicalize import canonicalize_population
from .checkpoint_io import format_pairs, load_population, parse_pairs, save_population
from .config import RunConfig, section_rows
from .data import load_idx, load_iris, make_blobs
from .errors import ConfigError, DataError
from .flow import load_flow, sample, save_flow, train_flow
from .metrics import distribution_distances, max_iou, wrong_set
from .nn_core import Population, evaluate, member_blocks, train_population
from .pca import default_latent_dim, load_pca, save_pca

# Published reference values, reported in stage outputs for context but
# never asserted (desk-scale estimator conditions differ).
REFERENCE_MAX_IOU = (0.8187, 0.0385)
REFERENCE_LOWCAP_TREND = (57.80, 25.54)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, pairs) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_pairs(pairs))


def read_manifest(path) -> dict:
    """key -> value of a manifest; DataError if it is not `write_manifest`
    text."""
    try:
        with open(path, encoding="utf-8") as f:
            return parse_pairs(f.read())
    except ValueError as exc:
        raise DataError(f"{path}: malformed manifest: {exc}") from exc


def load_task_data(cfg: RunConfig):
    """(train, test) datasets for the configured task; pure given config.
    ConfigError if the network's input width is not the feature width or
    its output width is below the class count."""
    d = cfg.data
    if cfg.task == "iris":
        train, test = load_iris(d.test_fraction, seed=cfg.seed)
    elif cfg.task == "blobs":
        train, test = make_blobs(d.blobs_classes, d.blobs_per_class, d.blobs_dim,
                                 d.blobs_spread, seed=cfg.seed,
                                 test_fraction=d.test_fraction)
    else:
        train = load_idx(d.mnist_train_images, d.mnist_train_labels, d.limit or None)
        test = load_idx(d.mnist_test_images, d.mnist_test_labels, d.limit or None)
    dims = cfg.arch.layer_dims
    classes = max(train.num_classes, test.num_classes)
    if dims[0] != train.features.shape[1] or dims[-1] < classes:
        raise ConfigError(
            f"[arch] layer_dims {','.join(map(str, dims))} do not fit the {cfg.task} "
            f"data: {train.features.shape[1]} features, {classes} classes")
    return train, test


# ---------------------------------------------------------------------------
# Stages: pure functions of the config and the loaded inputs to (objects, rows)


def stage_make_population(cfg: RunConfig):
    """Train one network per seed, as one population."""
    train, test = load_task_data(cfg)
    seeds = [cfg.base_seed + i for i in range(cfg.population_size)]
    pop = train_population(cfg.arch, train, cfg.train_hyper, seeds,
                           holdout=test, init_scheme=cfg.init_scheme)
    rows = []
    for i, (seed, accuracy) in enumerate(zip(pop.seeds.tolist(), pop.metrics.tolist())):
        rows += [(f"seed_{i:04d}", seed), (f"accuracy_{i:04d}", f"{accuracy:.6f}")]
    return (pop,), rows


def stage_canonicalize(cfg: RunConfig, population: Population):
    """Align every network to the reference; accuracy must be preserved."""
    _, test = load_task_data(cfg)
    aligned = population if cfg.canonicalize_mode == "off" else canonicalize_population(
        population, cfg.reference_index, cfg.canonicalize_max_iter)
    rows = []
    for i, (before, after) in enumerate(zip(evaluate(population, test),
                                            evaluate(aligned, test))):
        acc_before, acc_after = before.accuracy, after.accuracy
        rows += [(f"accuracy_before_{i:04d}", f"{acc_before:.6f}"),
                 (f"accuracy_after_{i:04d}", f"{acc_after:.6f}")]
        if abs(acc_after - acc_before) > 1e-6:
            raise DataError(f"canonicalize: accuracy changed for checkpoint {i} "
                            f"({acc_before:.6f} -> {acc_after:.6f})")
    return (aligned,), rows


def stage_fit_pca(cfg: RunConfig, population: Population | None = None):
    """Fit the configured PCA over the population's flat vectors, if any."""
    if cfg.pca_mode == "off":
        return (None,), []
    matrix = population.params.astype(np.float64)
    n, k = matrix.shape[0], cfg.latent_dim or default_latent_dim(cfg.population_size)
    if cfg.pca_mode == "standard":
        model = pca_mod.fit_standard(matrix, k)
    elif cfg.pca_mode == "incremental":
        blocks = [matrix[s:s + cfg.pca_batch_rows] for s in range(0, n, cfg.pca_batch_rows)]
        model = pca_mod.fit_incremental(blocks, k)
    else:
        model = pca_mod.fit_dual(matrix, k, micro_batch=cfg.pca_micro_batch,
                                 exact_eigen=cfg.pca_exact_eigen, seed=cfg.seed)
    evr = model.explained_variance_ratio()
    return (model,), [("n_samples", n), ("explained_variance_ratio", f"{evr.sum():.6f}")]


def stage_train_flow(cfg: RunConfig, population: Population, pca=None):
    """Train the flow-matching model over (possibly PCA-projected) weights."""
    matrix = population.params.astype(np.float64)
    if pca is not None:
        matrix = pca_mod.transform(pca, matrix)
    model = train_flow(matrix, cfg.flow_config(matrix.shape[1]), seed=cfg.seed)
    tail = model.loss_history[-100:]
    return (model,), [("final_loss", f"{float(np.mean(tail)):.8e}")]


def stage_generate(cfg: RunConfig, flow, pca=None):
    """Sample networks from the flow and recalibrate their BN statistics."""
    train, test = load_task_data(cfg)
    vectors = sample(flow, cfg.generate_count, seed=cfg.seed)
    if pca is not None:
        vectors = pca_mod.inverse_transform(pca, vectors)
    params = vectors.astype(np.float32).reshape(-1, cfg.arch.param_count())
    pop = Population(cfg.arch, params, seeds=np.full(len(params), cfg.seed, np.int64))
    for block in member_blocks(len(pop), cfg.arch, train.features.shape[0]):
        members = pop[block]
        if members.bn and cfg.recalibrate_bn:
            recalibrate(members, train, calib_fraction=cfg.calib_fraction)
        members.metrics[:] = [result.accuracy for result in evaluate(members, test)]
    return (pop,), [(f"accuracy_{i:04d}", f"{accuracy:.6f}")
                    for i, accuracy in enumerate(pop.metrics.tolist())]


def stage_evaluate(cfg: RunConfig, population: Population, generated: Population):
    """Accuracy and diversity metrics for original vs generated networks."""
    _, test = load_task_data(cfg)
    orig_evals = evaluate(population, test)
    orig_acc = np.array([r.accuracy for r in orig_evals])
    rows = [("original_count", len(population)),
            ("generated_count", len(generated)),
            ("original_accuracy_mean", f"{orig_acc.mean():.6f}"),
            ("original_accuracy_std", f"{orig_acc.std():.6f}")]

    if len(generated):
        gen_evals = evaluate(generated, test)
        gen_acc = np.array([r.accuracy for r in gen_evals])
        rows += [("generated_accuracy_mean", f"{gen_acc.mean():.6f}"),
                 ("generated_accuracy_std", f"{gen_acc.std():.6f}")]
        if cfg.metrics_iou:
            orig_sets = [wrong_set(r.predictions, test.labels) for r in orig_evals]
            gen_sets = [wrong_set(r.predictions, test.labels) for r in gen_evals]
            result = max_iou(gen_sets, orig_sets)
            rows += [("max_iou_mean", f"{result.mean:.6f}"),
                     ("max_iou_std", f"{result.std:.6f}")]
            for i, (v, a) in enumerate(zip(result.per_query, gen_acc)):
                rows.append((f"scatter_{i:04d}", f"{a:.6f},{v:.6f}"))
        if cfg.metrics_distances:
            gen_matrix = generated.params.astype(np.float64)
            dd = distribution_distances(population.params.astype(np.float64), gen_matrix)
            rows += [("wasserstein", f"{dd.wasserstein:.6e}"),
                     ("jensen_shannon", f"{dd.jensen_shannon:.6f}"),
                     ("cosine", f"{dd.cosine:.6f}"), ("l2", f"{dd.l2:.6f}"),
                     ("nn_mean", f"{dd.nn_mean:.6f}"), ("nn_std", f"{dd.nn_std:.6f}")]
            if len(generated) > 1:
                rows.append(("generated_min_pairwise_l2",
                             f"{_min_pairwise_l2(gen_matrix):.6e}"))
    else:
        rows.append(("note", "no generated networks; diversity metrics skipped"))
    return (), rows


def _min_pairwise_l2(m: np.ndarray) -> float:
    """Smallest L2 distance between two rows of m, one row at a time: each
    row's differences to the later rows go into one reused buffer and are
    squared and summed in place, as `np.linalg.norm` does, and one sqrt of
    the smallest sum follows. sqrt is monotone and correctly rounded, so
    this is the smallest of the norms bit for bit."""
    n = len(m)
    diff = np.empty((n - 1, m.shape[1]), dtype=m.dtype)

    def nearest_squared(i):
        d = np.subtract(m[i], m[i + 1:], out=diff[:n - 1 - i])
        return np.add.reduce(np.multiply(d, d, out=d), axis=1).min()

    return float(np.sqrt(min(nearest_squared(i) for i in range(n - 1))))


def stage_report(cfg: RunConfig, metrics: dict):
    """Human-readable accuracy table plus the max-IoU-vs-accuracy CSV."""
    m = metrics

    def ensemble(label):
        return "{:<18}{:>8}  {:>7}  {:>5}".format(label, *(
            m[f"{label}_{key}"] for key in ("accuracy_mean", "accuracy_std", "count")))

    try:
        lines = ["weightflow run report", f"task: {cfg.task}",
                 f"canonicalize: {cfg.canonicalize_mode}   pca: {cfg.pca_mode}", "",
                 "ensemble            mean      std      n", ensemble("original")]
        if int(m["generated_count"]) > 0:
            lines.append(ensemble("generated"))
            if "max_iou_mean" in m:
                lines += ["",
                          f"max-IoU (generated vs original): {m['max_iou_mean']}"
                          f" +/- {m['max_iou_std']}",
                          "published reference max-IoU: "
                          f"{REFERENCE_MAX_IOU[0]} +/- {REFERENCE_MAX_IOU[1]}"
                          " (reported for context, not asserted)"]
            if "generated_min_pairwise_l2" in m:
                lines.append("min pairwise L2 among generated: "
                             + m["generated_min_pairwise_l2"])
        else:
            lines.append("generated         (none: generation count was 0)")
        csv = ["index,accuracy,max_iou"]
        for key in sorted(m):
            if key.startswith("scatter_"):
                acc, iou_v = m[key].split(",")
                csv.append(f"{int(key.split('_')[1])},{acc},{iou_v}")
    except (KeyError, ValueError) as exc:
        raise DataError(f"stage report: malformed metrics.txt: {exc!r} "
                        "(rerun `evaluate`)") from exc
    return ("\n".join(lines) + "\n", "\n".join(csv) + "\n"), []


def _save_text(text: str, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


STAGES = {
    "make-population": stage_make_population,
    "canonicalize": stage_canonicalize,
    "fit-pca": stage_fit_pca,
    "train-flow": stage_train_flow,
    "generate": stage_generate,
    "evaluate": stage_evaluate,
    "report": stage_report,
}


# ---------------------------------------------------------------------------
# The stage table and the runner


class Stage(NamedTuple):
    manifest: str
    files: tuple  # ((file name, save(obj, path)), ...)
    load: Callable | None  # reads the first file, or the manifest if none
    inputs: Callable  # cfg -> {input name: upstream stage}
    sections: tuple = ()  # the config sections whose keys its manifest records


def _fit_source(cfg: RunConfig) -> dict:
    """PCA and the flow fit the aligned population, or the raw one."""
    return {"population": ("make-population" if cfg.canonicalize_mode == "off"
                           else "canonicalize")}


def _with_pca(cfg: RunConfig, inputs: dict) -> dict:
    return inputs if cfg.pca_mode == "off" else {**inputs, "pca": "fit-pca"}


TABLE = {
    "make-population": Stage(
        "population.manifest", (("population.dwfc", save_population),), load_population,
        lambda cfg: {}, ("run", "data", "arch", "population")),
    "canonicalize": Stage(
        "canonicalize.manifest", (("aligned.dwfc", save_population),), load_population,
        lambda cfg: {"population": "make-population"}, ("canonicalize",)),
    "fit-pca": Stage(
        "pca.manifest", (("pca.dwfp", save_pca),), load_pca,
        lambda cfg: {} if cfg.pca_mode == "off" else _fit_source(cfg), ("pca",)),
    "train-flow": Stage(
        "flow.manifest", (("flow.dwff", save_flow),), load_flow,
        lambda cfg: _with_pca(cfg, _fit_source(cfg)), ("flow",)),
    "generate": Stage(
        "generate.manifest", (("generated.dwfc", save_population),), load_population,
        lambda cfg: _with_pca(cfg, {"flow": "train-flow"}), ("generate",)),
    "evaluate": Stage(
        "metrics.txt", (), read_manifest,
        lambda cfg: {"population": "make-population", "generated": "generate"},
        ("metrics",)),
    "report": Stage(
        "report.manifest", (("report.txt", _save_text), ("diversity.csv", _save_text)),
        None, lambda cfg: {"metrics": "evaluate"}),
}


def _path(out_dir, name, stage: str, producer: str):
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        raise DataError(f"stage {stage}: missing upstream artifact {path} "
                        f"(run `{producer}` first)")
    return path


def _check_chain(cfg: RunConfig, out_dir, stage: str, upstream: str, seen: dict):
    """Check the manifests above `upstream`, then its own: the config rows
    and `input.*` rows the config implies, each the sha256 of that input's
    manifest. Adds (manifest, its sha256) to `seen`."""
    if upstream in seen:
        return
    spec = TABLE[upstream]
    inputs = spec.inputs(cfg)
    for producer in inputs.values():
        _check_chain(cfg, out_dir, stage, producer, seen)
    path = _path(out_dir, spec.manifest, stage, upstream)
    m = read_manifest(path)
    recorded = ", ".join(sorted(k[6:] for k in m if k.startswith("input."))) or "none"
    wanted = (section_rows(cfg, spec.sections)
              + [("inputs", ", ".join(sorted(inputs)) or "none")])
    found = {**m, "inputs": recorded}
    changed = [f"{key} {found.get(key)}, but the config asks for {value}"
               for key, value in wanted if found.get(key) != str(value)]
    if changed:
        name = spec.files[0][0] if spec.files else spec.manifest
        raise DataError(f"stage {stage}: {name} has {'; '.join(changed)} "
                        f"(rerun `{upstream}`)")
    for name, producer in inputs.items():
        if m[f"input.{name}"] != seen[producer][1]:
            raise DataError(f"stage {stage}: {spec.manifest} was written from another "
                            f"{TABLE[producer].manifest} (rerun `{upstream}`)")
    seen[upstream] = m, sha256_file(path)


def run_stage(cfg: RunConfig, out_dir, stage: str):
    """Run `stage` into `out_dir` once the manifest chain upstream of it
    holds; returns the path of its first file, or of its manifest."""
    os.makedirs(out_dir, exist_ok=True)
    spec, seen = TABLE[stage], {}
    inputs = spec.inputs(cfg)
    for producer in inputs.values():
        _check_chain(cfg, out_dir, stage, producer, seen)
    loaded = {}
    for name, producer in inputs.items():  # load first: a cut file says so
        up = TABLE[producer]
        path = _path(out_dir, up.files[0][0] if up.files else up.manifest, stage, producer)
        loaded[name] = up.load(path)
        if up.files and sha256_file(path) != seen[producer][0].get("sha256"):
            raise DataError(f"stage {stage}: {path} does not match the sha256 in "
                            f"{up.manifest} (rerun `{producer}`)")
    objects, rows = STAGES[stage](cfg, **loaded)
    rows = ([("stage", stage)] + [(f"input.{name}", seen[producer][1])
                                  for name, producer in inputs.items()]
            + section_rows(cfg, spec.sections) + rows)
    moves = []  # (temporary path, final path), the manifest last
    try:
        written = []
        for (name, save), obj in zip(spec.files, objects):
            if obj is not None:
                path = os.path.join(out_dir, name)
                moves.append((path + ".tmp", path))
                save(obj, path + ".tmp")
                written.append((name, sha256_file(path + ".tmp")))
        if spec.files:
            rows.append(("artifact", ",".join(name for name, _ in written) or "none"))
        if written:
            rows.append(("sha256", ",".join(digest for _, digest in written)))
        path = os.path.join(out_dir, spec.manifest)
        moves.append((path + ".tmp", path))
        write_manifest(path + ".tmp", rows)
        for tmp, path in moves:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in moves:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise
    return moves[0][1]


def run_pipeline(cfg: RunConfig, out_dir=None):
    """Run every stage in order; returns the report path."""
    out_dir = out_dir or cfg.out_dir
    for stage in STAGES:
        if stage != "canonicalize" or cfg.canonicalize_mode != "off":
            path = run_stage(cfg, out_dir, stage)
    return path
