"""The stage runner: only it writes, and a failed write leaves the previous
outputs as they were. Also the evaluate stage's pairwise-distance helper,
against the per-row norm loop it replaced, and the peak memory of the
stages that hold whole populations."""

import ast
import contextlib
import io
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightflow import checkpoint_io, flow, metrics, pca, pipeline
from weightflow.cli import main
from weightflow.config import DataConfig, RunConfig
from weightflow.flow import FlowConfig
from weightflow.nn_core import ArchitectureSpec, Population

CONFIG = """\
[run]
task = blobs
seed = 3

[arch]
layer_dims = 4,6,3

[population]
size = 3
epochs = 2

[pca]
mode = standard

[flow]
hidden_dim = 8
iterations = 10
integration_steps = 3

[generate]
count = 2
"""


def _calls(node):
    """Names of the functions `node` calls: `f(...)` -> f, `m.f(...)` -> m.f."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                yield f"{func.value.id}.{func.attr}"


def test_only_the_runner_writes():
    # Stage functions return objects and rows; `run_stage` saves them under
    # temporary names and moves them into place.
    tree = ast.parse(pathlib.Path(pipeline.__file__).read_text())
    stages = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("stage_")]
    assert {node.name for node in stages} == {f.__name__ for f in pipeline.STAGES.values()}
    writes = {}
    for node in stages:
        found = [name for name in _calls(node)
                 if name in ("open", "os.replace", "write_manifest")
                 or name.rpartition(".")[2].startswith("save_")]
        if found:
            writes[node.name] = found
    assert writes == {}


def _run(cfg_path, *argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([*argv, "--config", str(cfg_path)])
    return code, err.getvalue()


@pytest.fixture
def finished_run(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    out = tmp_path / "run"
    cfg_path.write_text(CONFIG.replace("seed = 3", f"seed = 3\nout_dir = {out}"))
    assert _run(cfg_path, "run")[0] == 0
    return cfg_path, out


def _tree(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("stage", ["make-population", "fit-pca", "train-flow", "generate"])
def test_failed_save_keeps_the_previous_outputs(finished_run, monkeypatch, stage):
    cfg_path, out = finished_run
    before = _tree(out)
    real = checkpoint_io.save_container

    def save_half(path, magic, version, header_pairs, arrays):
        real(path, magic, version, header_pairs, arrays)
        with open(path, "r+b") as f:
            f.truncate(f.seek(0, 2) // 2)
        raise OSError(28, "No space left on device")

    for module in (checkpoint_io, pca, flow):
        monkeypatch.setattr(module, "save_container", save_half)
    code, err = _run(cfg_path, stage)
    assert code == 3 and "No space left on device" in err
    assert _tree(out) == before


def test_failed_manifest_write_removes_every_temporary_file(finished_run, monkeypatch):
    # report writes two files before its manifest.
    cfg_path, out = finished_run
    before = _tree(out)

    def write_half(path, pairs):
        with open(path, "w", encoding="utf-8") as f:
            f.write("stage=rep")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(pipeline, "write_manifest", write_half)
    assert _run(cfg_path, "report")[0] == 3
    assert _tree(out) == before


def test_rerun_leaves_no_temporary_file(finished_run):
    cfg_path, out = finished_run
    before = _tree(out)
    assert _run(cfg_path, "run")[0] == 0
    assert _tree(out) == before


@pytest.mark.parametrize("mode", ["standard", "dual"])
def test_explained_variance_ratio_is_the_kept_share_of_the_total(rng, mode):
    # The manifest row is the share of the centred population's variance
    # that the kept directions hold: below 1 at latent_dim = 1, 1 at the
    # default latent_dim n - 1.
    arch = ArchitectureSpec((4, 8, 3))
    population = Population(arch, rng.normal(size=(6, arch.param_count())).astype(np.float32))
    matrix = population.params.astype(np.float64)
    s = np.linalg.svd(matrix - matrix.mean(axis=0), compute_uv=False)
    for latent_dim, share in [(1, s[0] ** 2 / (s ** 2).sum()), (0, 1.0)]:
        cfg = RunConfig(task="blobs", arch=arch, population_size=6, pca_mode=mode,
                        latent_dim=latent_dim, pca_exact_eigen=True)
        rows = dict(pipeline.stage_fit_pca(cfg, population)[1])
        assert rows["explained_variance_ratio"] == f"{share:.6f}"
        assert latent_dim == 0 or share < 0.5


def _min_norm(m):
    """The smallest of the per-row `np.linalg.norm` distances."""
    return float(min(np.linalg.norm(m[i] - m[i + 1:], axis=1).min()
                     for i in range(len(m) - 1)))


@pytest.mark.parametrize("shape", [(2, 5), (40, 531), (101, 17), (500, 1), (2000, 3)])
def test_min_pairwise_l2_equals_the_norm_form_bit_for_bit(shape):
    rng = np.random.default_rng(shape[0])
    for m in (rng.normal(size=shape), rng.normal(0, 1e-3, size=shape) + 5.0):
        assert pipeline._min_pairwise_l2(m) == _min_norm(m)
        dup = m.copy()
        dup[-1] = dup[0]
        assert pipeline._min_pairwise_l2(dup) == _min_norm(dup) == 0.0


@given(n=st.integers(2, 60), p=st.integers(1, 600), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1.0, 1e-160, 1e160]), offset=st.sampled_from([0.0, 5.0]),
       plant=st.sampled_from(["none", "duplicate", "ulp", "inf", "nan"]),
       dtype=st.sampled_from([np.float64, np.float32]),
       block=st.sampled_from([128, 1000, metrics.W1_BLOCK]))
@example(n=2, p=1, seed=0, scale=1.0, offset=0.0, plant="none", dtype=np.float32, block=128)
@example(n=2, p=300, seed=1, scale=1.0, offset=5.0, plant="duplicate", dtype=np.float32,
         block=128)
@settings(max_examples=300, deadline=None)
def test_min_pairwise_l2_equals_the_norm_form_on_hard_input(n, p, seed, scale, offset, plant,
                                                            dtype, block):
    # Offset rows make the Gram estimate cancel; 1e-160 and 1e160 underflow
    # and overflow its squares; a planted pair one ulp from another is a tie
    # the estimate cannot see. A float32 m is compared with the norm form
    # over its float64 copy; blocks of 128 and 1000 values split m into
    # many tiles and column slabs.
    rng = np.random.default_rng(seed)
    m = (rng.normal(size=(n, p)) + offset) * scale
    if plant == "duplicate":
        m[-1] = m[0]
    elif plant == "ulp" and n >= 4:
        step = rng.normal(0.0, 1e-3, size=p) * scale
        m[1] = m[0] + step
        step[0] = np.nextafter(step[0], np.inf)
        m[3] = m[2] + step
    elif plant in ("inf", "nan"):
        m[rng.integers(n), rng.integers(p)] = np.inf if plant == "inf" else np.nan
    with np.errstate(all="ignore"):
        m = m.astype(dtype)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "W1_BLOCK", block)
            got = pipeline._min_pairwise_l2(m)
        want = _min_norm(m.astype(np.float64))
    assert got == want or (np.isnan(got) and np.isnan(want))


@pytest.mark.parametrize("case", ["random", "float32", "tall", "one-column", "all-tied",
                                  "float32-tied", "nan"])
def test_min_pairwise_l2_peak_memory_within_its_blocks(case):
    rng = np.random.default_rng(0)
    m = {"random": lambda: rng.normal(size=(400, 531)),
         # 8 MB of float32 rows, whose float64 copy would be 16 MB
         "float32": lambda: rng.normal(size=(400, 5000)).astype(np.float32),
         "tall": lambda: rng.normal(size=(1000, 20)),
         "one-column": lambda: rng.normal(size=(500, 1)),
         "all-tied": lambda: np.eye(300),          # every pair is a candidate
         "float32-tied": lambda: np.zeros((300, 3000), np.float32),   # and wide rows
         "nan": lambda: np.where(np.eye(200, 100) > 0, np.nan, 1.0)}[case]()
    n = len(m)
    tracemalloc.start()
    try:
        pipeline._min_pairwise_l2(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Four float64 arrays of W1_BLOCK values and a candidate mask of as many
    # booleans, a few length-n vectors, and numpy's ufunc buffers.
    assert peak <= 4 * 8 * metrics.W1_BLOCK + metrics.W1_BLOCK + 8 * 8 * n + 2 ** 17, peak


def _peak(fn, *args):
    """(fn's result, the tracemalloc peak while it ran)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStagePeakMemory:
    """At 200 networks of 5,187 parameters, where count x P outweighs every
    block, each stage holds a stated number of whole copies of them."""

    @pytest.fixture(scope="class")
    def run(self):
        arch = ArchitectureSpec((8, 64, 64, 3), bn_layers=(1, 1))
        cfg = RunConfig(task="blobs", seed=3, data=DataConfig(blobs_dim=8), arch=arch,
                        population_size=200, canonicalize_mode="off", pca_mode="dual",
                        latent_dim=5, pca_exact_eigen=True,
                        flow=FlowConfig(hidden_dim=16, iterations=5, integration_steps=2),
                        generate_count=200)
        rng = np.random.default_rng(0)
        population = Population(arch, rng.normal(0.0, 0.3, (200, arch.param_count()))
                                .astype(np.float32))
        (model,), _ = pipeline.stage_fit_pca(cfg, population)
        (flow_model,), _ = pipeline.stage_train_flow(cfg, population, model)
        return cfg, population, model, flow_model

    def test_fit_pca_holds_one_float64_copy(self, run):
        cfg, population, model, _ = run
        _, peak = _peak(pipeline.stage_fit_pca, cfg, population)
        n, d = population.params.shape
        # The centred float64 copy, its n x n Gram matrix, and the
        # components with the temporaries of their normalization and signs.
        assert peak <= n * d * 8 + n * n * 8 + 4 * model.components.nbytes + 2 ** 18, peak

    def test_generate_holds_the_inverse_transform_and_its_float32_cast(self, run):
        cfg, _, model, flow_model = run
        ((generated,), _), peak = _peak(pipeline.stage_generate, cfg, flow_model, model)
        # The float64 inverse transform, kept whole for its bits, and the
        # float32 parameters cast from it (three float32 copies in all),
        # the PCA model's size again and 1 MiB for the flow's samples,
        # recalibration and evaluation.
        model_bytes = model.mean.nbytes + model.components.nbytes
        assert peak <= 3 * generated.params.nbytes + model_bytes + 2 ** 20, peak

    def test_evaluate_holds_two_float64_copies_for_the_product(self, run):
        cfg, population, model, flow_model = run
        (generated,), _ = pipeline.stage_generate(cfg, flow_model, model)
        original = population[slice(0, 10)]
        _, peak = _peak(pipeline.stage_evaluate, cfg, original, generated)
        # Float64 copies of both populations for the one product a @ b.T,
        # kept whole for its bits (twice the float32 inputs), and 1.5 MiB
        # for the evaluation passes, predictions, and metric blocks.
        inputs = original.params.nbytes + generated.params.nbytes
        assert peak <= 2 * inputs + 3 * 2 ** 19, peak
