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
files.

`run_stage` first sets glibc malloc's mmap and trim thresholds (mallopt(3))
to the values its own dynamic adjustment ends at on 64-bit. With the
defaults a freed array above 128 KiB, such as a flow trunk layer at a
400-row sampling batch, can go back to the operating system and be
page-faulted in again on the next allocation; with these the process
reuses it. They change where memory comes from, not what is computed."""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
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
from .metrics import block_rows, distribution_distances, max_iou, wrong_set
from .nn_core import Population, evaluate, train_population
from .pca import load_pca, save_pca

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
    pop = train_population(cfg.arch, train, cfg.train_hyper, seeds, holdout=test)
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
    """Fit the configured PCA over the population's flat vectors, if any.
    The fit centres the float32 parameters into its one float64 copy, and
    the explained share's total comes from the fit."""
    if cfg.pca_mode == "off":
        return (None,), []
    matrix = population.params
    n, k = matrix.shape[0], cfg.pca_latent_dim
    if cfg.pca_mode == "standard":
        model = pca_mod.fit_standard(matrix, k)
    else:
        model = pca_mod.fit_dual(matrix, k, exact_eigen=cfg.pca_exact_eigen, seed=cfg.seed)
    evr = pca_mod.explained_variance_ratio(model)
    return (model,), [("n_samples", n), ("explained_variance_ratio", f"{evr:.6f}")]


def stage_train_flow(cfg: RunConfig, population: Population, pca=None):
    """Train the flow-matching model over (possibly PCA-projected) weights;
    the projection centres the float32 parameters into float64 itself."""
    matrix = population.params
    if pca is not None:
        matrix = pca_mod.transform(pca, matrix)
    model = train_flow(matrix, cfg.flow_config(matrix.shape[1]), seed=cfg.seed)
    tail = model.loss_history[-100:]
    return (model,), [("final_loss", f"{float(np.mean(tail)):.8e}")]


def stage_generate(cfg: RunConfig, flow, pca=None):
    """Sample networks from the flow and recalibrate their BN statistics.

    The float64 samples (after the inverse transform, if any) are cast to
    the population's float32 parameters and dropped before recalibration,
    so from then on the float32 population is the one whole copy. The
    inverse transform stays one product: OpenBLAS gives a row block of it
    other bits than the same rows of the whole product."""
    train, test = load_task_data(cfg)
    vectors = sample(flow, cfg.generate_count, seed=cfg.seed)
    if pca is not None:
        vectors = pca_mod.inverse_transform(pca, vectors)
    params = vectors.astype(np.float32).reshape(-1, cfg.arch.param_count())
    del vectors
    pop = Population(cfg.arch, params, seeds=np.full(len(params), cfg.seed, np.int64))
    if pop.bn:
        recalibrate(pop, train, calib_fraction=cfg.calib_fraction)
    pop.metrics[:] = [result.accuracy for result in evaluate(pop, test)]
    return (pop,), [(f"accuracy_{i:04d}", f"{accuracy:.6f}")
                    for i, accuracy in enumerate(pop.metrics.tolist())]


def stage_evaluate(cfg: RunConfig, population: Population, generated: Population):
    """Accuracy and diversity metrics for original vs generated networks.
    The distances read both populations' float32 parameters as they are
    (see `distribution_distances` and `_min_pairwise_l2` for what each
    holds beyond them)."""
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
        orig_sets = [wrong_set(r.predictions, test.labels) for r in orig_evals]
        gen_sets = [wrong_set(r.predictions, test.labels) for r in gen_evals]
        result = max_iou(gen_sets, orig_sets)
        rows += [("max_iou_mean", f"{result.mean:.6f}"),
                 ("max_iou_std", f"{result.std:.6f}")]
        for i, (v, a) in enumerate(zip(result.per_query, gen_acc)):
            rows.append((f"scatter_{i:04d}", f"{a:.6f},{v:.6f}"))
        dd = distribution_distances(population.params, generated.params)
        rows += [("wasserstein", f"{dd.wasserstein:.6e}"),
                 ("jensen_shannon", f"{dd.jensen_shannon:.6f}"),
                 ("cosine", f"{dd.cosine:.6f}"), ("l2", f"{dd.l2:.6f}"),
                 ("nn_mean", f"{dd.nn_mean:.6f}"), ("nn_std", f"{dd.nn_std:.6f}")]
        if len(generated) > 1:
            rows.append(("generated_min_pairwise_l2",
                         f"{_min_pairwise_l2(generated.params):.6e}"))
    else:
        rows.append(("note", "no generated networks; diversity metrics skipped"))
    return (), rows


def _min_pairwise_l2(m: np.ndarray) -> float:
    """Smallest L2 distance between two rows of m (float32 or float64),
    bit-equal to the smallest of the per-row `np.linalg.norm(m[i] - m[i +
    1:], axis=1)` distances over m cast to float64.

    Every squared distance s_ij is first estimated from a Gram product per
    tile of row pairs, as |a_i|^2 + |a_j|^2 - 2 a_i.a_j. Only candidate pairs
    are then summed exactly, as the norm does: d = m[i] - m[J] in float64,
    squared in place and `np.add.reduce`d along each row, then one sqrt of
    the smallest sum (sqrt is monotone and correctly rounded). A pair stops
    being a candidate only when its estimate less its error bound exceeds
    another pair's estimate plus that pair's bound, so the pair with the
    smallest exact sum always stays one, and the estimate's bits never
    reach the result, whatever the tiling.

    The bound: with unit roundoff u, g_k = k u / (1 - k u) and eta the
    smallest subnormal, the estimate lies within g_(P+3) (|a_i| + |a_j|)^2
    + 3 P eta of the true s_ij and the exact sum within g_(P+2) (|a_i| +
    |a_j|)^2 + P eta, for any summation order, BLAS blocking or FMA use; eta
    covers gradual underflow. The bound used, 2 g_(4P+16) (|a_i|^2 +
    |a_j|^2) + (4P + 16) eta on the computed squared norms, covers both
    errors, as (|a_i| + |a_j|)^2 <= 2 (|a_i|^2 + |a_j|^2), and the rounding
    of the norms and of its own arithmetic; the comparisons need no margin,
    as rounding is monotone. All of it is float64 arithmetic. A non-finite
    or near-overflowing squared norm makes every pair a candidate, in row
    order: that is the per-row loop itself, its NaN handling included.

    A tile pairs rows s..e-1 with rows t..t+R-1, R = sqrt(W1_BLOCK): the
    first tile of a row block starts at t = s + 1, as the per-row loop's
    columns do. Beyond m it holds at most four float64 arrays of
    `metrics.W1_BLOCK` values each, whatever n and P: a tile's estimates
    with one column slab's product added into them, and that slab of the
    tile's two row blocks (views, for a float64 m); or one exact pass's
    `block_rows(P)` rows of differences, with their float32 gather for a
    float32 m."""
    n, p = m.shape
    info = np.finfo(np.float64)
    k = 4 * p + 16
    gamma = k * (info.eps / 2) / (1 - k * info.eps / 2)
    tiny = k * info.smallest_subnormal
    rows = math.isqrt(block_rows(1))            # R, rows of a tile
    width = block_rows(rows)                    # columns of a slab
    step = block_rows(p)                        # difference rows at a time
    sq = np.einsum("ij,ij->i", m, m, dtype=np.float64)
    slack = 2 * gamma * sq

    def gram(s, e, t):
        est = None
        for c in range(0, p, width):
            a = m[s:e, c:c + width].astype(np.float64, copy=False)
            b = m[t:t + rows, c:c + width].astype(np.float64, copy=False)
            if est is None:
                est = a @ b.T
            else:
                est += a @ b.T
        return est

    def exact_min(i, cols):
        mins = []
        for c in range(0, len(cols), step):
            d = m[cols[c:c + step]].astype(np.float64, copy=False)
            np.subtract(m[i], d, out=d)
            mins.append(np.add.reduce(np.multiply(d, d, out=d), axis=1).min())
        return np.min(mins)

    def candidates():
        if not sq.max() <= info.max / 16:
            yield from ((i, np.arange(i + 1, n)) for i in range(n - 1))
            return
        upper = np.inf
        for s in range(0, n - 1, rows):
            e = min(s + rows, n - 1)
            for t in range(s + 1, n, rows):
                est = gram(s, e, t)             # pair (s + i, t + j) at [i, j]
                est *= -2
                est += sq[s:e, None]
                est += sq[t:t + rows]
                if t == s + 1:
                    for i in range(1, e - s):
                        est[i, :i] = np.inf             # pairs j <= i
                i, j = np.unravel_index(np.argmin(est), est.shape)
                upper = min(upper, est[i, j] + slack[s + i] + slack[t + j] + tiny)
                est -= slack[s:e, None]
                est -= slack[t:t + rows]
                hit = est <= upper + tiny
                del est
                for i in np.flatnonzero(hit.any(axis=1)):
                    yield s + i, t + np.flatnonzero(hit[i])

    return float(np.sqrt(min(exact_min(i, cols) for i, cols in candidates())))


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
        lambda cfg: {"population": "make-population", "generated": "generate"}),
    "report": Stage(
        "report.manifest", (("report.txt", _save_text), ("diversity.csv", _save_text)),
        None, lambda cfg: {"metrics": "evaluate"}),
}


M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3   # mallopt parameters, <malloc.h>
MMAP_THRESHOLD = 32 << 20    # DEFAULT_MMAP_THRESHOLD_MAX on 64-bit
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def _keep_freed_memory() -> None:
    """Raise malloc's mmap and trim thresholds; a no-op where the C
    library has no mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


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
    _keep_freed_memory()
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
