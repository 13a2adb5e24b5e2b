"""Pipeline stages: train population -> canonicalize -> PCA -> flow ->
generate -> evaluate -> report.

Every stage is a pure function of (config, upstream artifacts, seed): given
the same inputs it rewrites byte-identical outputs. Each stage emits a
manifest (flat key=value text, no timestamps) that records the content hash
of its inputs and outputs, so manifests chain into an audit trail.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from . import pca as pca_mod
from .bn_recalib import member_blocks, recalibrate_members
from .canonicalize import canonicalize_population
from .checkpoint_io import load_checkpoint, save_checkpoint
from .config import RunConfig
from .data import load_idx, load_iris, make_blobs
from .errors import DataError
from .flow import load_flow, sample, save_flow, train_flow
from .metrics import distribution_distances, max_iou, wrong_set
from .nn_core import (evaluate, evaluate_members, flatten, stack_members,
                      train_population, unstack_member)
from .pca import default_latent_dim, load_pca

# Published reference values, reported in stage outputs for context but
# never asserted (desk-scale estimator conditions differ).
REFERENCE_MAX_IOU = (0.8187, 0.0385)
REFERENCE_LOWCAP_TREND = (57.80, 25.54)


# ---------------------------------------------------------------------------
# Manifest plumbing


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, pairs) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for key, value in pairs:
            f.write(f"{key}={value}\n")


def read_manifest(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            key, _, value = line.rstrip("\n").partition("=")
            out[key] = value
    return out


def _require(path, stage: str, produced_by: str):
    if not os.path.exists(path):
        raise DataError(
            f"stage {stage}: missing upstream artifact {path} "
            f"(run `{produced_by}` first)")
    return path


# ---------------------------------------------------------------------------
# Data + population helpers


def load_task_data(cfg: RunConfig):
    """(train, test) datasets for the configured task; pure given config."""
    d = cfg.data
    limit = d.limit or None
    if cfg.task == "iris":
        return load_iris(d.test_fraction, seed=cfg.seed)
    if cfg.task == "blobs":
        return make_blobs(d.blobs_classes, d.blobs_per_class, d.blobs_dim,
                          d.blobs_spread, seed=cfg.seed,
                          test_fraction=d.test_fraction)
    train = load_idx(d.mnist_train_images, d.mnist_train_labels, limit)
    test = load_idx(d.mnist_test_images, d.mnist_test_labels, limit)
    return train, test


def population_paths(pop_dir):
    """Checkpoint files in a population directory, in index order."""
    if not os.path.isdir(pop_dir):
        raise DataError(f"population directory {pop_dir} does not exist")
    names = sorted(n for n in os.listdir(pop_dir) if n.endswith(".dwfc"))
    if not names:
        raise DataError(f"population directory {pop_dir} has no .dwfc files")
    return [os.path.join(pop_dir, n) for n in names]


def load_population(pop_dir):
    pop = [load_checkpoint(p) for p in population_paths(pop_dir)]
    arch = pop[0].arch
    for i, ckpt in enumerate(pop):
        if ckpt.arch != arch:
            raise DataError(
                f"heterogeneous population: checkpoint {i} has a different "
                "architecture")
    return pop


def _fresh_output_dir(path) -> None:
    """Create a stage's output directory, dropping checkpoints of earlier runs."""
    os.makedirs(path, exist_ok=True)
    for name in os.listdir(path):
        if name.endswith(".dwfc"):
            os.remove(os.path.join(path, name))


def _source_dir(cfg: RunConfig, out_dir, stage: str):
    """Aligned population when canonicalization is on, else raw."""
    if cfg.canonicalize_mode != "off":
        return _require(os.path.join(out_dir, "aligned"), stage, "canonicalize")
    return _require(os.path.join(out_dir, "population"), stage, "make-population")


def _population_matrix(pop) -> np.ndarray:
    return np.stack([flatten(c) for c in pop]).astype(np.float64)


# ---------------------------------------------------------------------------
# Stages


def stage_make_population(cfg: RunConfig, out_dir) -> str:
    """Train one network per seed; write DWFC files plus manifest."""
    train, test = load_task_data(cfg)
    pop_dir = os.path.join(out_dir, "population")
    _fresh_output_dir(pop_dir)
    rows = [("stage", "make-population"), ("task", cfg.task),
            ("count", cfg.population_size)]
    seeds = [cfg.base_seed + i for i in range(cfg.population_size)]
    population = train_population(cfg.arch, train, cfg.train_hyper, seeds,
                                  holdout=test, init_scheme=cfg.init_scheme)
    for i, ckpt in enumerate(population):
        name = f"ckpt_{i:04d}.dwfc"
        path = os.path.join(pop_dir, name)
        save_checkpoint(ckpt, path)
        rows += [(f"file_{i:04d}", f"population/{name}"),
                 (f"seed_{i:04d}", ckpt.seed),
                 (f"accuracy_{i:04d}", f"{ckpt.metric:.6f}"),
                 (f"sha256_{i:04d}", sha256_file(path))]
    write_manifest(os.path.join(out_dir, "population.manifest"), rows)
    return pop_dir


def stage_canonicalize(cfg: RunConfig, out_dir) -> str:
    """Align every checkpoint to the reference; accuracy must be preserved."""
    pop_dir = _require(os.path.join(out_dir, "population"),
                       "canonicalize", "make-population")
    _, test = load_task_data(cfg)
    pop = load_population(pop_dir)
    if cfg.canonicalize_mode == "off":
        aligned_pop = pop
    else:
        aligned_pop = canonicalize_population(pop, cfg.reference_index,
                                              cfg.canonicalize_max_iter)
    aligned_dir = os.path.join(out_dir, "aligned")
    _fresh_output_dir(aligned_dir)
    rows = [("stage", "canonicalize"), ("mode", cfg.canonicalize_mode),
            ("reference_index", cfg.reference_index),
            ("input.population", sha256_file(
                os.path.join(out_dir, "population.manifest")))]
    for i, (ckpt, aligned) in enumerate(zip(pop, aligned_pop)):
        acc_before = evaluate(ckpt, test).accuracy
        acc_after = evaluate(aligned, test).accuracy
        name = f"ckpt_{i:04d}.dwfc"
        path = os.path.join(aligned_dir, name)
        save_checkpoint(aligned, path)
        rows += [(f"file_{i:04d}", f"aligned/{name}"),
                 (f"accuracy_before_{i:04d}", f"{acc_before:.6f}"),
                 (f"accuracy_after_{i:04d}", f"{acc_after:.6f}"),
                 (f"sha256_{i:04d}", sha256_file(path))]
        if abs(acc_after - acc_before) > 1e-6:
            raise DataError(
                f"canonicalize: accuracy changed for checkpoint {i} "
                f"({acc_before:.6f} -> {acc_after:.6f})")
    write_manifest(os.path.join(out_dir, "canonicalize.manifest"), rows)
    return aligned_dir


def stage_fit_pca(cfg: RunConfig, out_dir) -> str | None:
    """Fit the configured PCA over the population's flat vectors."""
    rows = [("stage", "fit-pca"), ("mode", cfg.pca_mode)]
    manifest = os.path.join(out_dir, "pca.manifest")
    if cfg.pca_mode == "off":
        write_manifest(manifest, rows + [("artifact", "none")])
        return None
    src = _source_dir(cfg, out_dir, "fit-pca")
    matrix = _population_matrix(load_population(src))
    n = matrix.shape[0]
    k = cfg.latent_dim or default_latent_dim(n)
    if cfg.pca_mode == "standard":
        model = pca_mod.fit_standard(matrix, k)
    elif cfg.pca_mode == "incremental":
        blocks = [matrix[s:s + cfg.pca_batch_rows]
                  for s in range(0, n, cfg.pca_batch_rows)]
        model = pca_mod.fit_incremental(blocks, k)
    else:
        model = pca_mod.fit_dual(matrix, k, micro_batch=cfg.pca_micro_batch,
                                 exact_eigen=cfg.pca_exact_eigen, seed=cfg.seed)
    path = os.path.join(out_dir, "pca.dwfp")
    pca_mod.save_pca(model, path)
    evr = model.explained_variance_ratio()
    rows += [("input.population", sha256_file(_stage_input_manifest(cfg, out_dir))),
             ("latent_dim", k), ("n_samples", n),
             ("explained_variance_ratio", f"{evr.sum():.6f}"),
             ("artifact", "pca.dwfp"), ("sha256", sha256_file(path))]
    write_manifest(manifest, rows)
    return path


def _stage_input_manifest(cfg: RunConfig, out_dir):
    name = "canonicalize.manifest" if cfg.canonicalize_mode != "off" \
        else "population.manifest"
    return os.path.join(out_dir, name)


def stage_train_flow(cfg: RunConfig, out_dir) -> str:
    """Train the flow-matching model over (possibly PCA-projected) weights."""
    src = _source_dir(cfg, out_dir, "train-flow")
    matrix = _population_matrix(load_population(src))
    rows = [("stage", "train-flow"),
            ("input.population", sha256_file(_stage_input_manifest(cfg, out_dir)))]
    if cfg.pca_mode != "off":
        pca_path = _require(os.path.join(out_dir, "pca.dwfp"),
                            "train-flow", "fit-pca")
        model_pca = load_pca(pca_path)
        matrix = pca_mod.transform(model_pca, matrix)
        rows.append(("input.pca", sha256_file(pca_path)))
    flow_cfg = cfg.flow_config(matrix.shape[1])
    model = train_flow(matrix, flow_cfg, seed=cfg.seed)
    path = os.path.join(out_dir, "flow.dwff")
    save_flow(model, path)
    tail = model.loss_history[-100:]
    rows += [("input_dim", flow_cfg.input_dim),
             ("iterations", flow_cfg.iterations),
             ("final_loss", f"{float(np.mean(tail)):.8e}"),
             ("artifact", "flow.dwff"), ("sha256", sha256_file(path))]
    write_manifest(os.path.join(out_dir, "flow.manifest"), rows)
    return path


def stage_generate(cfg: RunConfig, out_dir) -> str:
    """Sample checkpoints from the flow; recalibrate BN; write DWFC files."""
    flow_path = _require(os.path.join(out_dir, "flow.dwff"),
                         "generate", "train-flow")
    model = load_flow(flow_path)
    train, test = load_task_data(cfg)
    gen_dir = os.path.join(out_dir, "generated")
    _fresh_output_dir(gen_dir)
    rows = [("stage", "generate"), ("count", cfg.generate_count),
            ("input.flow", sha256_file(flow_path))]
    vectors = sample(model, cfg.generate_count, seed=cfg.seed)
    if cfg.pca_mode != "off" and cfg.generate_count > 0:
        pca_path = _require(os.path.join(out_dir, "pca.dwfp"),
                            "generate", "fit-pca")
        vectors = pca_mod.inverse_transform(load_pca(pca_path), vectors)
        rows.append(("input.pca", sha256_file(pca_path)))
    params = vectors.astype(np.float32)
    for block in member_blocks(len(params), cfg.arch, train.features.shape[0]):
        net = stack_members(params[block], cfg.arch)
        if net.bn and cfg.recalibrate_bn:
            recalibrate_members(net, train, calib_fraction=cfg.calib_fraction)
        for j, result in enumerate(evaluate_members(net, test)):
            i = block.start + j
            ckpt = unstack_member(params[block], net, j)
            ckpt.seed = cfg.seed
            ckpt.metric = result.accuracy
            name = f"gen_{i:04d}.dwfc"
            path = os.path.join(gen_dir, name)
            save_checkpoint(ckpt, path)
            rows += [(f"file_{i:04d}", f"generated/{name}"),
                     (f"accuracy_{i:04d}", f"{ckpt.metric:.6f}"),
                     (f"sha256_{i:04d}", sha256_file(path))]
    write_manifest(os.path.join(out_dir, "generate.manifest"), rows)
    return gen_dir


def stage_evaluate(cfg: RunConfig, out_dir) -> str:
    """Accuracy and diversity metrics for original vs generated networks."""
    pop_dir = _require(os.path.join(out_dir, "population"),
                       "evaluate", "make-population")
    gen_manifest = _require(os.path.join(out_dir, "generate.manifest"),
                            "evaluate", "generate")
    _, test = load_task_data(cfg)
    originals = load_population(pop_dir)
    gen_dir = os.path.join(out_dir, "generated")
    gen_names = sorted(n for n in os.listdir(gen_dir) if n.endswith(".dwfc")) \
        if os.path.isdir(gen_dir) else []
    generated = [load_checkpoint(os.path.join(gen_dir, n)) for n in gen_names]

    orig_evals = [evaluate(c, test) for c in originals]
    orig_acc = np.array([r.accuracy for r in orig_evals])
    rows = [("stage", "evaluate"),
            ("input.generate", sha256_file(gen_manifest)),
            ("original_count", len(originals)),
            ("generated_count", len(generated)),
            ("original_accuracy_mean", f"{orig_acc.mean():.6f}"),
            ("original_accuracy_std", f"{orig_acc.std():.6f}")]

    if generated:
        gen_evals = [evaluate(c, test) for c in generated]
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
            gen_matrix = _population_matrix(generated)
            dd = distribution_distances(_population_matrix(originals), gen_matrix)
            rows += [("wasserstein", f"{dd.wasserstein:.6e}"),
                     ("jensen_shannon", f"{dd.jensen_shannon:.6f}"),
                     ("cosine", f"{dd.cosine:.6f}"),
                     ("l2", f"{dd.l2:.6f}"),
                     ("nn_mean", f"{dd.nn_mean:.6f}"),
                     ("nn_std", f"{dd.nn_std:.6f}")]
            if len(generated) > 1:
                rows.append(("generated_min_pairwise_l2",
                             f"{_min_pairwise_l2(gen_matrix):.6e}"))
    else:
        rows.append(("note", "no generated networks; diversity metrics skipped"))
    path = os.path.join(out_dir, "metrics.txt")
    write_manifest(path, rows)
    return path


def _min_pairwise_l2(m: np.ndarray) -> float:
    """Smallest L2 distance between two rows of m, one row at a time."""
    return float(min(np.linalg.norm(m[i] - m[i + 1:], axis=1).min()
                     for i in range(len(m) - 1)))


def stage_report(cfg: RunConfig, out_dir) -> str:
    """Human-readable accuracy table plus the max-IoU-vs-accuracy CSV."""
    metrics_path = _require(os.path.join(out_dir, "metrics.txt"),
                            "report", "evaluate")
    m = read_manifest(metrics_path)
    lines = [
        "weightflow run report",
        f"task: {cfg.task}",
        f"canonicalize: {cfg.canonicalize_mode}   pca: {cfg.pca_mode}",
        "",
        "ensemble            mean      std      n",
        "original          {:>8}  {:>7}  {:>5}".format(
            m["original_accuracy_mean"], m["original_accuracy_std"],
            m["original_count"]),
    ]
    if int(m["generated_count"]) > 0:
        lines.append("generated         {:>8}  {:>7}  {:>5}".format(
            m["generated_accuracy_mean"], m["generated_accuracy_std"],
            m["generated_count"]))
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
    report_path = os.path.join(out_dir, "report.txt")
    with open(report_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")

    csv_path = os.path.join(out_dir, "diversity.csv")
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write("index,accuracy,max_iou\n")
        for key in sorted(m):
            if key.startswith("scatter_"):
                acc, iou_v = m[key].split(",")
                f.write(f"{int(key.split('_')[1])},{acc},{iou_v}\n")
    write_manifest(os.path.join(out_dir, "report.manifest"),
                   [("stage", "report"),
                    ("input.metrics", sha256_file(metrics_path)),
                    ("report", "report.txt"),
                    ("sha256.report", sha256_file(report_path)),
                    ("csv", "diversity.csv"),
                    ("sha256.csv", sha256_file(csv_path))])
    return report_path


STAGES = {
    "make-population": stage_make_population,
    "canonicalize": stage_canonicalize,
    "fit-pca": stage_fit_pca,
    "train-flow": stage_train_flow,
    "generate": stage_generate,
    "evaluate": stage_evaluate,
    "report": stage_report,
}


def run_pipeline(cfg: RunConfig, out_dir=None):
    """Run every stage in order; returns the report path."""
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    stage_make_population(cfg, out_dir)
    if cfg.canonicalize_mode != "off":
        stage_canonicalize(cfg, out_dir)
    stage_fit_pca(cfg, out_dir)
    stage_train_flow(cfg, out_dir)
    stage_generate(cfg, out_dir)
    stage_evaluate(cfg, out_dir)
    return stage_report(cfg, out_dir)
