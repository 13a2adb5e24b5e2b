import struct
import tracemalloc

import numpy as np
import pytest

from weightflow.checkpoint_io import (CKPT_MAGIC, load_checkpoint,
                                      load_population, save_checkpoint,
                                      save_population)
from weightflow.data import LabeledDataset
from weightflow.errors import ArgumentError, DataError
from weightflow.nn_core import (ArchitectureSpec, Population, evaluate,
                                evaluate_members, flatten, init_weights)

BN_ARCH = ArchitectureSpec((4, 8, 8, 3), "relu", (True, True))


def bn_population(n, rng):
    """n BN networks with distinct running statistics, counts, seeds and metrics."""
    pop = []
    for i in range(n):
        ckpt = init_weights(BN_ARCH, seed=i)
        for l, st in ckpt.bn.items():
            st.running_mean = rng.normal(size=8)
            st.running_var = rng.uniform(0.5, 2.0, size=8)
            st.count = 100 * i + l + 1
        ckpt.seed = -3 + 7 * i
        ckpt.metric = float(rng.uniform())
        pop.append(ckpt)
    return pop


PLAIN_ARCH = ArchitectureSpec((4, 8, 3))


def plain_population(n, rng):
    """n networks without BN, with distinct seeds and metrics."""
    pop = [init_weights(PLAIN_ARCH, seed=i) for i in range(n)]
    for ckpt in pop:
        ckpt.seed, ckpt.metric = 11 * ckpt.seed - 5, float(rng.uniform())
    return pop


def reference_bytes(pop, arch):
    """A DWFC v2 file of the checkpoints `pop`, written member by member."""
    descriptor = ("layer_dims=" + ",".join(map(str, arch.layer_dims))
                  + f"\nactivation={arch.activation}\nbn_layers="
                  + ",".join("1" if b else "0" for b in arch.bn_layers)
                  + f"\nmembers={len(pop)}\n").encode()
    blob = CKPT_MAGIC + struct.pack("<II", 2, len(descriptor)) + descriptor
    blob += b"".join(flatten(c).astype("<f4").tobytes() for c in pop)
    for l in arch.bn_widths():
        blob += b"".join(c.bn[l].running_mean.astype("<f8").tobytes() for c in pop)
        blob += b"".join(c.bn[l].running_var.astype("<f8").tobytes() for c in pop)
        blob += b"".join(struct.pack("<Q", c.bn[l].count) for c in pop)
    blob += b"".join(struct.pack("<q", c.seed) for c in pop)
    return blob + b"".join(struct.pack("<d", c.metric) for c in pop)


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
        ckpt = init_weights(ArchitectureSpec((4, 16, 3)), seed=5)
        ckpt.metric = 0.93
        path = tmp_path / "a.dwfc"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.arch == ckpt.arch
        assert np.array_equal(flatten(loaded), flatten(ckpt))
        assert loaded.seed == 5 and loaded.metric == 0.93

    def test_bn_sidecar(self, tmp_path, rng):
        arch = ArchitectureSpec((4, 8, 8, 3), "relu", (True, True))
        ckpt = init_weights(arch, seed=1)
        ckpt.bn[0].running_mean = rng.normal(size=8)
        ckpt.bn[0].running_var = rng.uniform(0.5, 2.0, size=8)
        ckpt.bn[0].count = 120
        path = tmp_path / "b.dwfc"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.bn[0].running_mean, ckpt.bn[0].running_mean)
        assert np.array_equal(loaded.bn[0].running_var, ckpt.bn[0].running_var)
        assert loaded.bn[0].count == 120
        assert loaded.bn[1].count == 0

    def test_deterministic_bytes(self, tmp_path):
        ckpt = init_weights(ArchitectureSpec((4, 16, 3)), seed=2)
        p1, p2 = tmp_path / "x.dwfc", tmp_path / "y.dwfc"
        save_checkpoint(ckpt, p1)
        save_checkpoint(ckpt, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestPopulationRoundTrip:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_bit_exact(self, tmp_path, rng, n):
        pop = bn_population(n, rng)
        path = tmp_path / "p.dwfc"
        save_population(Population.from_checkpoints(BN_ARCH, pop), path)
        population = load_population(path)
        loaded = [population.member(i) for i in range(len(population))]
        assert len(loaded) == n
        for a, b in zip(pop, loaded):
            assert b.arch == BN_ARCH
            assert flatten(a).tobytes() == flatten(b).tobytes()
            for l in (0, 1):
                assert a.bn[l].running_mean.tobytes() == b.bn[l].running_mean.tobytes()
                assert a.bn[l].running_var.tobytes() == b.bn[l].running_var.tobytes()
                assert a.bn[l].count == b.bn[l].count
            assert (a.seed, a.metric) == (b.seed, b.metric)

    def test_one_member_file_is_a_checkpoint(self, tmp_path, rng):
        ckpt = bn_population(1, rng)[0]
        p1, p2 = tmp_path / "c.dwfc", tmp_path / "p.dwfc"
        save_checkpoint(ckpt, p1)
        save_population(Population.from_checkpoints(BN_ARCH, [ckpt]), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert flatten(load_checkpoint(p2)).tobytes() == flatten(ckpt).tobytes()

    def test_member_count_in_descriptor(self, tmp_path, rng):
        path = tmp_path / "p.dwfc"
        save_population(Population.from_checkpoints(BN_ARCH, bn_population(3, rng)), path)
        text, _ = split_descriptor(path.read_bytes())
        assert text.splitlines()[-1] == "members=3"

    def test_other_architecture_rejected(self, tmp_path, rng):
        pop = bn_population(2, rng) + [init_weights(ArchitectureSpec((4, 8, 3)))]
        with pytest.raises(ArgumentError, match="member 2"):
            save_population(Population.from_checkpoints(BN_ARCH, pop), tmp_path / "p.dwfc")
        assert not (tmp_path / "p.dwfc").exists()


POPULATIONS = [(BN_ARCH, bn_population), (PLAIN_ARCH, plain_population)]


class TestPopulation:
    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("arch,make", POPULATIONS, ids=["bn", "plain"])
    def test_columns_round_trip(self, tmp_path, rng, n, arch, make):
        ckpts = make(n, rng)
        pop = Population.from_checkpoints(arch, ckpts)
        path = tmp_path / "p.dwfc"
        save_population(pop, path)
        assert path.read_bytes() == reference_bytes(ckpts, arch)
        loaded = load_population(path)
        assert loaded.arch == arch and len(loaded) == n
        assert loaded.params.dtype == np.float32
        assert loaded.params.tobytes() == pop.params.tobytes()
        assert list(loaded.bn) == list(arch.bn_widths())
        for l, columns in pop.bn.items():
            for got, want in zip(loaded.bn[l], columns):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert loaded.seeds.tobytes() == pop.seeds.tobytes()
        assert loaded.metrics.tobytes() == pop.metrics.tobytes()
        save_population(loaded, tmp_path / "again.dwfc")
        assert (tmp_path / "again.dwfc").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("arch,make", POPULATIONS, ids=["bn", "plain"])
    def test_member_is_the_checkpoint(self, tmp_path, rng, arch, make):
        ckpts = make(3, rng)
        path = tmp_path / "p.dwfc"
        save_population(Population.from_checkpoints(arch, ckpts), path)
        loaded = load_population(path)
        for i, want in enumerate(ckpts):
            got = loaded.member(i)
            assert got.arch == arch
            for a, b in zip(got.weights + got.biases, want.weights + want.biases):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert sorted(got.bn) == sorted(want.bn)
            for l, st in want.bn.items():
                for name in ("gamma", "beta", "running_mean", "running_var"):
                    a, b = getattr(got.bn[l], name), getattr(st, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert type(got.bn[l].count) is int and got.bn[l].count == st.count
            assert type(got.seed) is int and got.seed == want.seed
            assert type(got.metric) is float and got.metric == want.metric
            got.weights[0][...] = 0.0  # a member holds copies
        assert loaded.params.tobytes() == Population.from_checkpoints(arch, ckpts).params.tobytes()

    def test_stacked_evaluation_matches_each_member(self, tmp_path, rng):
        ckpts = bn_population(5, rng)
        for ckpt in ckpts:  # means near the pre-activations, so each member's statistics matter
            for st in ckpt.bn.values():
                st.running_mean = rng.normal(0.0, 0.3, size=8)
        path = tmp_path / "p.dwfc"
        save_population(Population.from_checkpoints(BN_ARCH, ckpts), path)
        loaded = load_population(path)
        data = LabeledDataset(rng.normal(size=(40, 4)).astype(np.float32),
                              rng.integers(0, 3, size=40))
        stacked = evaluate_members(loaded.net(), data)
        assert len(stacked) == len(loaded.evaluate(data)) == 5
        for ckpt, got, blocked in zip(ckpts, stacked, loaded.evaluate(data)):
            want = evaluate(ckpt, data)
            assert got.accuracy == want.accuracy == blocked.accuracy
            assert np.array_equal(got.predictions, want.predictions)
            assert np.array_equal(blocked.predictions, want.predictions)
        assert len({r.predictions.tobytes() for r in stacked}) > 1


class TestErrors:
    def test_magic(self, tmp_path):
        path = tmp_path / "bad.dwfc"
        path.write_bytes(b"XXXX" + bytes(32))
        with pytest.raises(DataError, match="not a DWFC"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        ckpt = init_weights(ArchitectureSpec((4, 16, 3)), seed=0)
        path = tmp_path / "t.dwfc"
        save_checkpoint(ckpt, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        ckpt = init_weights(ArchitectureSpec((4, 16, 3)), seed=0)
        path = tmp_path / "v.dwfc"
        save_checkpoint(ckpt, path)
        blob = bytearray(path.read_bytes())
        assert blob[:4] == CKPT_MAGIC
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    def test_damaged(self, tmp_path, damage):
        arch = ArchitectureSpec((4, 8, 8, 3), "relu", (True, True))
        path = tmp_path / "d.dwfc"
        save_checkpoint(init_weights(arch, seed=0), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_damaged_population(self, tmp_path, damage, rng):
        path = tmp_path / "d.dwfc"
        save_population(Population.from_checkpoints(BN_ARCH, bn_population(3, rng)), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataError):
            load_population(path)

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "v1.dwfc"
        save_checkpoint(init_weights(ArchitectureSpec((4, 16, 3)), seed=0), path)
        text, _ = split_descriptor(path.read_bytes())
        v1_text = text.replace("members=1\n", "")
        path.write_bytes(with_descriptor(path.read_bytes(), v1_text, version=1))
        with pytest.raises(DataError, match="unsupported version 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("members,match", [
        ("-1", "negative member count"), ("two", "malformed descriptor"),
        ("1.5", "malformed descriptor"), ("", "malformed descriptor"),
        ("4", "truncated"), (str(2 ** 40), "truncated"),
    ])
    def test_bad_member_count(self, tmp_path, rng, members, match):
        path = tmp_path / "m.dwfc"
        save_population(Population.from_checkpoints(BN_ARCH, bn_population(3, rng)), path)
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

    def test_checkpoint_needs_one_member(self, tmp_path, rng):
        path = tmp_path / "p.dwfc"
        for n in (0, 3):
            save_population(Population.from_checkpoints(BN_ARCH, bn_population(n, rng)), path)
            with pytest.raises(DataError, match=f"holds {n} networks"):
                load_checkpoint(path)
