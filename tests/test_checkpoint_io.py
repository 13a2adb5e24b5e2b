import ast
import pathlib
import struct
import tracemalloc

import numpy as np
import pytest

import weightflow
from weightflow.checkpoint_io import CKPT_MAGIC, load_population, save_population
from weightflow.data import LabeledDataset
from weightflow.errors import DataError, ShapeError
from weightflow.nn_core import ArchitectureSpec, evaluate, init_population

BN_ARCH = ArchitectureSpec((4, 8, 8, 3), "relu", (True, True))


def bn_population(n, rng):
    """n BN networks with distinct running statistics, counts, seeds and metrics."""
    pop = init_population(BN_ARCH, list(range(n)))
    for l, (mean, var, count) in pop.bn.items():
        mean[...] = rng.normal(size=(n, 8))
        var[...] = rng.uniform(0.5, 2.0, size=(n, 8))
        count[...] = 100 * np.arange(n) + l + 1
    pop.seeds[...] = -3 + 7 * np.arange(n)
    pop.metrics[...] = rng.uniform(size=n)
    return pop


PLAIN_ARCH = ArchitectureSpec((4, 8, 3))


def plain_population(n, rng):
    """n networks without BN, with distinct seeds and metrics."""
    pop = init_population(PLAIN_ARCH, list(range(n)))
    pop.seeds[...] = 11 * pop.seeds - 5
    pop.metrics[...] = rng.uniform(size=n)
    return pop


def reference_bytes(pop):
    """A DWFC v2 file of `pop`, written member by member."""
    arch, members = pop.arch, range(len(pop))
    descriptor = ("layer_dims=" + ",".join(map(str, arch.layer_dims))
                  + f"\nactivation={arch.activation}\nbn_layers="
                  + ",".join("1" if b else "0" for b in arch.bn_layers)
                  + f"\nmembers={len(pop)}\n").encode()
    blob = CKPT_MAGIC + struct.pack("<II", 2, len(descriptor)) + descriptor
    blob += b"".join(pop.params[i].astype("<f4").tobytes() for i in members)
    for l in arch.bn_widths():
        mean, var, count = pop.bn[l]
        blob += b"".join(mean[i].astype("<f8").tobytes() for i in members)
        blob += b"".join(var[i].astype("<f8").tobytes() for i in members)
        blob += b"".join(struct.pack("<Q", int(count[i])) for i in members)
    blob += b"".join(struct.pack("<q", int(pop.seeds[i])) for i in members)
    return blob + b"".join(struct.pack("<d", float(pop.metrics[i])) for i in members)


def split_descriptor(blob):
    """(descriptor text, payload bytes) of a DWFC file."""
    length, = struct.unpack("<I", blob[8:12])
    return blob[12:12 + length].decode(), blob[12 + length:]


def with_descriptor(blob, text, version=2):
    """`blob` with its format version and descriptor replaced."""
    payload = split_descriptor(blob)[1]
    return (CKPT_MAGIC + struct.pack("<II", version, len(text)) + text.encode()
            + payload)


class TestRoundTrip:
    def test_plain_mlp(self, tmp_path):
        net = init_population(ArchitectureSpec((4, 16, 3)), [5])
        net.metrics[0] = 0.93
        path = tmp_path / "a.dwfc"
        save_population(net, path)
        loaded = load_population(path)
        assert loaded.arch == net.arch
        assert np.array_equal(loaded.params, net.params)
        assert loaded.seeds.tolist() == [5] and loaded.metrics.tolist() == [0.93]

    def test_bn_sidecar(self, tmp_path, rng):
        arch = ArchitectureSpec((4, 8, 8, 3), "relu", (True, True))
        net = init_population(arch, [1])
        mean, var, count = net.bn[0]
        mean[0] = rng.normal(size=8)
        var[0] = rng.uniform(0.5, 2.0, size=8)
        count[0] = 120
        path = tmp_path / "b.dwfc"
        save_population(net, path)
        loaded = load_population(path)
        assert np.array_equal(loaded.bn[0][0], mean)
        assert np.array_equal(loaded.bn[0][1], var)
        assert loaded.bn[0][2].tolist() == [120]
        assert loaded.bn[1][2].tolist() == [0]

    def test_deterministic_bytes(self, tmp_path):
        net = init_population(ArchitectureSpec((4, 16, 3)), [2])
        p1, p2 = tmp_path / "x.dwfc", tmp_path / "y.dwfc"
        save_population(net, p1)
        save_population(net, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestPopulationRoundTrip:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_bit_exact(self, tmp_path, rng, n):
        pop = bn_population(n, rng)
        path = tmp_path / "p.dwfc"
        save_population(pop, path)
        loaded = load_population(path)
        assert len(loaded) == n and loaded.arch == BN_ARCH
        for i in range(n):
            a, b = pop[i:i + 1], loaded[i:i + 1]
            assert a.params.tobytes() == b.params.tobytes()
            for l in (0, 1):
                for got, want in zip(b.bn[l], a.bn[l]):
                    assert got.tobytes() == want.tobytes()
            assert (a.seeds[0], a.metrics[0]) == (b.seeds[0], b.metrics[0])

    def test_one_member_file_is_a_checkpoint(self, tmp_path, rng):
        # A one-member block of a bigger population saves as the file of
        # just that network.
        pop = bn_population(3, rng)
        path = tmp_path / "c.dwfc"
        save_population(pop[1:2], path)
        assert path.read_bytes() == reference_bytes(pop[1:2])
        assert load_population(path).params.tobytes() == pop.params[1].tobytes()

    def test_member_count_in_descriptor(self, tmp_path, rng):
        path = tmp_path / "p.dwfc"
        save_population(bn_population(3, rng), path)
        text, _ = split_descriptor(path.read_bytes())
        assert text.splitlines()[-1] == "members=3"

    def test_other_architecture_rejected(self, tmp_path, rng):
        # BN columns of another width than the population's architecture.
        pop = bn_population(2, rng)
        pop.bn[1] = (np.zeros((2, 9)), np.ones((2, 9)), np.zeros(2, np.uint64))
        with pytest.raises(ShapeError, match="BN statistics at layer 1"):
            save_population(pop, tmp_path / "p.dwfc")
        assert not (tmp_path / "p.dwfc").exists()


POPULATIONS = [bn_population, plain_population]


class TestPopulation:
    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("make", POPULATIONS, ids=["bn", "plain"])
    def test_columns_round_trip(self, tmp_path, rng, n, make):
        pop = make(n, rng)
        path = tmp_path / "p.dwfc"
        save_population(pop, path)
        assert path.read_bytes() == reference_bytes(pop)
        loaded = load_population(path)
        assert loaded.arch == pop.arch and len(loaded) == n
        assert loaded.params.dtype == np.float32
        assert loaded.params.tobytes() == pop.params.tobytes()
        assert list(loaded.bn) == list(pop.arch.bn_widths())
        for l, columns in pop.bn.items():
            for got, want in zip(loaded.bn[l], columns):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert loaded.seeds.tobytes() == pop.seeds.tobytes()
        assert loaded.metrics.tobytes() == pop.metrics.tobytes()
        save_population(loaded, tmp_path / "again.dwfc")
        assert (tmp_path / "again.dwfc").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("make", POPULATIONS, ids=["bn", "plain"])
    def test_member_is_the_checkpoint(self, tmp_path, rng, make):
        # Each one-member block of the loaded file has the saved member's
        # tensors, dtypes and bytes, as views of the loaded columns.
        pop = make(3, rng)
        path = tmp_path / "p.dwfc"
        save_population(pop, path)
        loaded = load_population(path)
        for i in range(3):
            got, want = loaded[i:i + 1], pop[i:i + 1]
            assert got.arch == pop.arch
            for a, b in zip(got.weights + got.biases, want.weights + want.biases):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert sorted(got.bn_views) == sorted(want.bn_views)
            for l, views in want.bn_views.items():
                for a, b in zip(got.bn_views[l], views):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert got.seeds.tolist() == want.seeds.tolist()
            assert got.metrics.tolist() == want.metrics.tolist()
            got.weights[0][...] = 0.0  # a block's views write through
            assert not loaded.params[i, :32].any()
        assert loaded.params.tobytes() != pop.params.tobytes()

    def test_stacked_evaluation_matches_each_member(self, tmp_path, rng):
        pop = bn_population(5, rng)
        for mean, _, _ in pop.bn.values():  # means near the pre-activations, so each member's statistics matter
            mean[...] = rng.normal(0.0, 0.3, size=mean.shape)
        path = tmp_path / "p.dwfc"
        save_population(pop, path)
        loaded = load_population(path)
        data = LabeledDataset(rng.normal(size=(40, 4)).astype(np.float32),
                              rng.integers(0, 3, size=40))
        stacked = evaluate(loaded, data)
        assert len(stacked) == 5
        for i, got in enumerate(stacked):
            want = evaluate(pop[i:i + 1], data)[0]
            assert got.accuracy == want.accuracy
            assert np.array_equal(got.predictions, want.predictions)
        assert len({r.predictions.tobytes() for r in stacked}) > 1


class TestErrors:
    def test_magic(self, tmp_path):
        path = tmp_path / "bad.dwfc"
        path.write_bytes(b"XXXX" + bytes(32))
        with pytest.raises(DataError, match="not a DWFC"):
            load_population(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.dwfc"
        save_population(init_population(ArchitectureSpec((4, 16, 3)), [0]), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(DataError, match="truncated"):
            load_population(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.dwfc"
        save_population(init_population(ArchitectureSpec((4, 16, 3)), [0]), path)
        blob = bytearray(path.read_bytes())
        assert blob[:4] == CKPT_MAGIC
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version"):
            load_population(path)

    def test_damaged(self, tmp_path, damage):
        arch = ArchitectureSpec((4, 8, 8, 3), "relu", (True, True))
        path = tmp_path / "d.dwfc"
        save_population(init_population(arch, [0]), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataError):
            load_population(path)

    def test_damaged_population(self, tmp_path, damage, rng):
        path = tmp_path / "d.dwfc"
        save_population(bn_population(3, rng), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataError):
            load_population(path)

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "v1.dwfc"
        save_population(init_population(ArchitectureSpec((4, 16, 3)), [0]), path)
        text, _ = split_descriptor(path.read_bytes())
        v1_text = text.replace("members=1\n", "")
        path.write_bytes(with_descriptor(path.read_bytes(), v1_text, version=1))
        with pytest.raises(DataError, match="unsupported version 1"):
            load_population(path)

    @pytest.mark.parametrize("members,match", [
        ("-1", "negative member count"), ("two", "malformed descriptor"),
        ("1.5", "malformed descriptor"), ("", "malformed descriptor"),
        ("4", "truncated"), (str(2 ** 40), "truncated"),
    ])
    def test_bad_member_count(self, tmp_path, rng, members, match):
        path = tmp_path / "m.dwfc"
        save_population(bn_population(3, rng), path)
        text, _ = split_descriptor(path.read_bytes())
        text = text.replace("members=3", f"members={members}")
        path.write_bytes(with_descriptor(path.read_bytes(), text))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=match):
                load_population(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_only_the_container_and_idx_readers_use_struct():
    # Every binary file goes through checkpoint_io's one container; `data`
    # reads the big-endian IDX input files.
    users = set()
    for path in pathlib.Path(weightflow.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "struct" in names:
                users.add(path.stem)
    assert users == {"checkpoint_io", "data"}
