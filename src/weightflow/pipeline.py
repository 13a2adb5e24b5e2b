"""Pipeline stages: train population -> canonicalize -> PCA -> flow ->
generate -> evaluate -> report.

Every stage is a pure function of (config, upstream artifacts, seed): given
the same inputs it rewrites byte-identical outputs. Each stage emits a
manifest (flat key=value text, no timestamps) that records the content hash
of its inputs and outputs, so manifests chain into an audit trail. A
population is one DWFC file (`population.dwfc`, `aligned.dwfc`,
`generated.dwfc`) written by one stage call from one `nn_core.Population`.
A stage checks every artifact it reads against the `sha256` row of the
manifest written beside it, its networks against the config's `[arch]`,
the latent width of `pca.dwfp` against `[pca] latent_dim` and the config
in `flow.dwff` against `[flow]`, and stops with DataError on a mismatch."""

from __future__ import annotations

import hashlib
import os

import numpy as np

from . import pca as pca_mod
from .bn_recalib import recalibrate
from .canonicalize import canonicalize_population
from .checkpoint_io import format_pairs, load_population, parse_pairs, save_population
from .config import RunConfig
from .data import load_idx, load_iris, make_blobs
from .errors import ConfigError, DataError
from .flow import load_flow, sample, save_flow, train_flow
from .metrics import distribution_distances, max_iou, wrong_set
from .nn_core import Population, evaluate, member_blocks, train_population
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
        f.write(format_pairs(pairs))


def read_manifest(path) -> dict:
    """key -> value of a manifest; DataError if it is not `write_manifest`
    text."""
    try:
        with open(path, encoding="utf-8") as f:
            return parse_pairs(f.read())
    except ValueError as exc:
        raise DataError(f"{path}: malformed manifest: {exc}") from exc


def _require(path, stage: str, produced_by: str):
    if not os.path.exists(path):
        raise DataError(
            f"stage {stage}: missing upstream artifact {path} "
            f"(run `{produced_by}` first)")
    return path


# ---------------------------------------------------------------------------
# Data + population helpers


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


# Artifact -> (the manifest its stage writes beside it, that stage).
_ARTIFACTS = {
    "population.dwfc": ("population.manifest", "make-population"),
    "aligned.dwfc": ("canonicalize.manifest", "canonicalize"),
    "pca.dwfp": ("pca.manifest", "fit-pca"),
    "flow.dwff": ("flow.manifest", "train-flow"),
    "generated.dwfc": ("generate.manifest", "generate"),
}


def _load_input(out_dir, name, stage: str, load):
    """(load(path), sha256) of artifact `name`, once its bytes match the
    sha256 row of the manifest its stage wrote beside it."""
    manifest, producer = _ARTIFACTS[name]
    path = _require(os.path.join(out_dir, name), stage, producer)
    manifest = _require(os.path.join(out_dir, manifest), stage, producer)
    loaded, digest = load(path), sha256_file(path)
    if digest != read_manifest(manifest).get("sha256"):
        raise DataError(f"stage {stage}: {path} does not match the sha256 in "
                        f"{manifest} (rerun `{producer}`)")
    return loaded, digest


def _load_population(cfg: RunConfig, out_dir, name, stage: str) -> Population:
    """Population artifact `name`, once it matches its manifest and its
    networks have the config's [arch]."""
    pop, _ = _load_input(out_dir, name, stage, load_population)
    if pop.arch != cfg.arch:
        raise DataError(f"stage {stage}: {name} holds networks of {pop.arch}, but the "
                        f"config has {cfg.arch} (rerun `make-population`)")
    return pop


def _source(cfg: RunConfig, out_dir, stage: str):
    """The population PCA and the flow fit (aligned when canonicalization is
    on, else raw), and the sha256 of its manifest."""
    name = "aligned.dwfc" if cfg.canonicalize_mode != "off" else "population.dwfc"
    pop = _load_population(cfg, out_dir, name, stage)
    return pop, sha256_file(os.path.join(out_dir, _ARTIFACTS[name][0]))


def _write_artifact(out_dir, name, rows, save, obj) -> str:
    """`save(obj, path)` to artifact `name`, then its manifest: `rows` plus
    the artifact's name and sha256."""
    path = os.path.join(out_dir, name)
    save(obj, path)
    write_manifest(os.path.join(out_dir, _ARTIFACTS[name][0]),
                   rows + [("artifact", name), ("sha256", sha256_file(path))])
    return path


def _load_pca(cfg: RunConfig, out_dir, stage: str, n: int):
    """(pca.dwfp, sha256), once it matches its manifest and has the latent
    width fit-pca takes for the config and n networks."""
    model, digest = _load_input(out_dir, "pca.dwfp", stage, load_pca)
    k = cfg.latent_dim or default_latent_dim(n)
    if model.latent_dim != k:
        raise DataError(f"stage {stage}: pca.dwfp has latent_dim {model.latent_dim}, but the "
                        f"config asks for {k} (rerun `fit-pca`)")
    return model, digest


# ---------------------------------------------------------------------------
# Stages


def stage_make_population(cfg: RunConfig, out_dir) -> str:
    """Train one network per seed; write them as one DWFC file plus manifest."""
    train, test = load_task_data(cfg)
    seeds = [cfg.base_seed + i for i in range(cfg.population_size)]
    pop = train_population(cfg.arch, train, cfg.train_hyper, seeds,
                           holdout=test, init_scheme=cfg.init_scheme)
    rows = [("stage", "make-population"), ("task", cfg.task),
            ("count", cfg.population_size)]
    for i, (seed, accuracy) in enumerate(zip(pop.seeds.tolist(), pop.metrics.tolist())):
        rows += [(f"seed_{i:04d}", seed), (f"accuracy_{i:04d}", f"{accuracy:.6f}")]
    return _write_artifact(out_dir, "population.dwfc", rows, save_population, pop)


def stage_canonicalize(cfg: RunConfig, out_dir) -> str:
    """Align every network to the reference; accuracy must be preserved."""
    pop = _load_population(cfg, out_dir, "population.dwfc", "canonicalize")
    _, test = load_task_data(cfg)
    if cfg.canonicalize_mode == "off":
        aligned = pop
    else:
        aligned = canonicalize_population(pop, cfg.reference_index,
                                          cfg.canonicalize_max_iter)
    rows = [("stage", "canonicalize"), ("mode", cfg.canonicalize_mode),
            ("reference_index", cfg.reference_index),
            ("input.population", sha256_file(
                os.path.join(out_dir, "population.manifest")))]
    for i, (before, after) in enumerate(zip(evaluate(pop, test), evaluate(aligned, test))):
        acc_before, acc_after = before.accuracy, after.accuracy
        rows += [(f"accuracy_before_{i:04d}", f"{acc_before:.6f}"),
                 (f"accuracy_after_{i:04d}", f"{acc_after:.6f}")]
        if abs(acc_after - acc_before) > 1e-6:
            raise DataError(
                f"canonicalize: accuracy changed for checkpoint {i} "
                f"({acc_before:.6f} -> {acc_after:.6f})")
    return _write_artifact(out_dir, "aligned.dwfc", rows, save_population, aligned)


def stage_fit_pca(cfg: RunConfig, out_dir) -> str | None:
    """Fit the configured PCA over the population's flat vectors."""
    rows = [("stage", "fit-pca"), ("mode", cfg.pca_mode)]
    if cfg.pca_mode == "off":
        write_manifest(os.path.join(out_dir, "pca.manifest"), rows + [("artifact", "none")])
        return None
    source, source_manifest = _source(cfg, out_dir, "fit-pca")
    matrix = source.params.astype(np.float64)
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
    evr = model.explained_variance_ratio()
    rows += [("input.population", source_manifest),
             ("latent_dim", k), ("n_samples", n),
             ("explained_variance_ratio", f"{evr.sum():.6f}")]
    return _write_artifact(out_dir, "pca.dwfp", rows, pca_mod.save_pca, model)


def stage_train_flow(cfg: RunConfig, out_dir) -> str:
    """Train the flow-matching model over (possibly PCA-projected) weights."""
    source, source_manifest = _source(cfg, out_dir, "train-flow")
    matrix = source.params.astype(np.float64)
    rows = [("stage", "train-flow"), ("input.population", source_manifest)]
    if cfg.pca_mode != "off":
        model_pca, pca_sha = _load_pca(cfg, out_dir, "train-flow", len(source))
        matrix = pca_mod.transform(model_pca, matrix)
        rows.append(("input.pca", pca_sha))
    flow_cfg = cfg.flow_config(matrix.shape[1])
    model = train_flow(matrix, flow_cfg, seed=cfg.seed)
    tail = model.loss_history[-100:]
    rows += [("input_dim", flow_cfg.input_dim),
             ("iterations", flow_cfg.iterations),
             ("final_loss", f"{float(np.mean(tail)):.8e}")]
    return _write_artifact(out_dir, "flow.dwff", rows, save_flow, model)


def stage_generate(cfg: RunConfig, out_dir) -> str:
    """Sample networks from the flow; recalibrate BN; write one DWFC file."""
    # flow.dwff records only its width; the networks it was fit on have an
    # architecture to check against the config's [arch].
    networks, _ = _source(cfg, out_dir, "generate")
    model, flow_sha = _load_input(out_dir, "flow.dwff", "generate", load_flow)
    rows = [("stage", "generate"), ("count", cfg.generate_count),
            ("input.flow", flow_sha)]
    model_pca = None
    if cfg.pca_mode != "off" and cfg.generate_count > 0:
        model_pca, pca_sha = _load_pca(cfg, out_dir, "generate", len(networks))
        rows.append(("input.pca", pca_sha))
    name, source = ("flow.dwff", model.config) if model_pca is None else ("pca.dwfp", model_pca)
    if (cfg.pca_mode == "off" or model_pca) and source.input_dim != cfg.arch.param_count():
        raise DataError(f"stage generate: {name} makes {source.input_dim}-parameter networks, "
                        f"but the config has {cfg.arch} with {cfg.arch.param_count()} "
                        f"parameters (rerun `make-population`)")
    wanted = vars(cfg.flow_config(model.config.input_dim))
    changed = [f"{key} {value!r} in flow.dwff, {wanted[key]!r} in the config"
               for key, value in vars(model.config).items() if value != wanted[key]]
    if changed:
        raise DataError("stage generate: flow.dwff was trained with another [flow]: "
                        f"{'; '.join(changed)} (rerun `train-flow`)")
    train, test = load_task_data(cfg)
    vectors = sample(model, cfg.generate_count, seed=cfg.seed)
    if model_pca is not None:
        vectors = pca_mod.inverse_transform(model_pca, vectors)
    # Rows are (0, latent_dim) when nothing was sampled through a PCA.
    params = vectors.astype(np.float32).reshape(-1, cfg.arch.param_count())
    pop = Population(cfg.arch, params, seeds=np.full(len(params), cfg.seed, np.int64))
    for block in member_blocks(len(pop), cfg.arch, train.features.shape[0]):
        members = pop[block]
        if members.bn and cfg.recalibrate_bn:
            recalibrate(members, train, calib_fraction=cfg.calib_fraction)
        members.metrics[:] = [result.accuracy for result in evaluate(members, test)]
    rows += [(f"accuracy_{i:04d}", f"{accuracy:.6f}")
             for i, accuracy in enumerate(pop.metrics.tolist())]
    return _write_artifact(out_dir, "generated.dwfc", rows, save_population, pop)


def stage_evaluate(cfg: RunConfig, out_dir) -> str:
    """Accuracy and diversity metrics for original vs generated networks."""
    originals = _load_population(cfg, out_dir, "population.dwfc", "evaluate")
    generated = _load_population(cfg, out_dir, "generated.dwfc", "evaluate")
    _, test = load_task_data(cfg)

    orig_evals = evaluate(originals, test)
    orig_acc = np.array([r.accuracy for r in orig_evals])
    rows = [("stage", "evaluate"),
            ("input.generate", sha256_file(os.path.join(out_dir, "generate.manifest"))),
            ("original_count", len(originals)),
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
            dd = distribution_distances(originals.params.astype(np.float64), gen_matrix)
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
