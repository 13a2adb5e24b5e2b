import importlib.machinery
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightflow import canonicalize
from weightflow.canonicalize import (apply_attention_assignment,
                                     apply_permutation, canonicalize_population,
                                     invert_permutation, random_assignment,
                                     solve_lap_max, solve_lap_min,
                                     transfusion_align, weight_match,
                                     AttentionAssignment, PermutationAssignment)
from weightflow.errors import ArgumentError, ShapeError
from weightflow.nn_core import (ArchitectureSpec, AttentionSpec, Population,
                                evaluate, forward, init_population,
                                mha_forward, random_attention)


def brute_force_max(score):
    n = score.shape[0]
    best, best_p = -np.inf, None
    for p in itertools.permutations(range(n)):
        v = sum(score[i, p[i]] for i in range(n))
        if v > best:
            best, best_p = v, p
    return best, np.array(best_p)


class TestLap:
    def test_identity_matrix(self):
        p = solve_lap_max(np.eye(5))
        assert p.tolist() == [0, 1, 2, 3, 4]

    def test_2x2_hand(self):
        p = solve_lap_max(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert p.tolist() == [1, 0]
        val = 2.0 + 2.0
        assert val == 4.0

    def test_random_6x6_vs_brute_force(self, rng):
        for _ in range(20):
            score = rng.normal(size=(6, 6))
            p = solve_lap_max(score)
            opt, _ = brute_force_max(score)
            assert abs(score[np.arange(6), p].sum() - opt) < 1e-9

    def test_min_variant(self, rng):
        cost = rng.normal(size=(5, 5))
        p = solve_lap_min(cost)
        opt, _ = brute_force_max(-cost)
        assert abs(cost[np.arange(5), p].sum() + opt) < 1e-9

    def test_tie_break_constant_matrix(self):
        # all optima equal; lexicographically smallest assignment expected
        p = solve_lap_max(np.zeros((4, 4)))
        assert p.tolist() == [0, 1, 2, 3]

    def test_tie_break_dead_units(self):
        # Small integer scores tie often; zeroed rows and columns stand for
        # dead ReLU units. The first optimum in itertools.permutations order
        # is the lexicographically smallest one.
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            score = rng.integers(0, 3, size=(n, n)).astype(np.float64)
            score[rng.random(n) < 0.3, :] = 0.0
            score[:, rng.random(n) < 0.3] = 0.0
            perms = np.array(list(itertools.permutations(range(n))))
            totals = score[np.arange(n), perms].sum(axis=1)
            expected = perms[int(np.argmax(totals))]
            assert solve_lap_max(score).tolist() == expected.tolist(), score

    def test_solver_loader_fallback(self, monkeypatch, rng):
        # Without a compiled scipy/optimize/_lsap module the loader falls back
        # to the public scipy.optimize import; both solve alike.
        from scipy.optimize import linear_sum_assignment
        find_spec = importlib.machinery.PathFinder.find_spec
        monkeypatch.setattr(
            importlib.machinery.PathFinder, "find_spec",
            lambda name, path=None, target=None:
                None if name == "_lsap" else find_spec(name, path, target))
        fallback = canonicalize._linear_sum_assignment.__wrapped__()
        assert fallback is linear_sum_assignment
        score = rng.normal(size=(8, 8))
        for a, b in zip(fallback(score, maximize=True),
                        canonicalize._linear_sum_assignment()(score, maximize=True)):
            assert np.array_equal(a, b)

    def test_non_square_rejected(self):
        with pytest.raises(ArgumentError):
            solve_lap_max(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ArgumentError):
            solve_lap_max(np.array([[1.0, np.inf], [0.0, 1.0]]))

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed, n):
        score = np.random.default_rng(seed).normal(size=(n, n))
        p = solve_lap_max(score)
        assert sorted(p.tolist()) == list(range(n))
        opt, _ = brute_force_max(score)
        assert abs(score[np.arange(n), p].sum() - opt) < 1e-9


def axis_labels(arch):
    """Every tensor of a network mapped to the permutation label acting on
    each of its axes: 'P{l}' for hidden layer l, None for a fixed axis."""
    spec = {}
    for l in range(arch.num_layers):
        out_label = f"P{l}" if l < arch.num_hidden else None
        in_label = f"P{l - 1}" if 0 <= l - 1 < arch.num_hidden else None
        spec[f"W{l}"] = (out_label, in_label)
        spec[f"b{l}"] = (out_label,)
        if arch.has_bn(l):
            for t in ("gamma", "beta", "running_mean", "running_var"):
                spec[f"bn{l}.{t}"] = (out_label,)
    return spec


def reference_permutation(pop, perm, i):
    """Member i of `pop` permuted tensor by tensor: each axis labelled in
    `axis_labels` is gathered with np.take. Returns (flat vector, BN
    layer -> (means, variances))."""
    arch = pop.arch
    tensors = {}
    for l in range(arch.num_layers):
        tensors[f"W{l}"] = pop.weights[l][i].copy()
        tensors[f"b{l}"] = pop.biases[l][i, 0].copy()
        if l in pop.bn_views:
            tensors[f"bn{l}.gamma"] = pop.bn_views[l][0][i, 0].copy()
            tensors[f"bn{l}.beta"] = pop.bn_views[l][1][i, 0].copy()
            tensors[f"bn{l}.running_mean"] = pop.bn[l][0][i].copy()
            tensors[f"bn{l}.running_var"] = pop.bn[l][1][i].copy()
    perms = {f"P{l}": p for l, p in enumerate(perm.layer_perms)}
    for name, labels in axis_labels(arch).items():
        for axis, label in enumerate(labels):
            if label is not None:
                tensors[name] = np.take(tensors[name], perms[label], axis=axis)
    flat = []
    for l in range(arch.num_layers):
        flat += [tensors[f"W{l}"].ravel(), tensors[f"b{l}"]]
        if arch.has_bn(l):
            flat += [tensors[f"bn{l}.gamma"], tensors[f"bn{l}.beta"]]
    return np.concatenate(flat), {l: (tensors[f"bn{l}.running_mean"], tensors[f"bn{l}.running_var"])
                                  for l in pop.bn}


@st.composite
def populations_and_assignments(draw):
    """1-3 hidden layers with random BN flags, 1-4 members with random
    parameters, statistics, counts, seeds and metrics, and a random
    assignment."""
    hidden = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    bn = tuple(draw(st.lists(st.booleans(), min_size=len(hidden), max_size=len(hidden))))
    arch = ArchitectureSpec((draw(st.integers(1, 4)), *hidden, draw(st.integers(1, 4))),
                            "relu", bn)
    n = draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pop = Population(arch, gen.normal(size=(n, arch.param_count())).astype(np.float32),
                     {l: (gen.normal(size=(n, d)), gen.uniform(0.1, 2.0, size=(n, d)),
                          gen.integers(0, 1000, size=n).astype(np.uint64))
                      for l, d in arch.bn_widths().items()},
                     gen.integers(-50, 50, size=n), gen.uniform(size=n))
    perm = PermutationAssignment(tuple(gen.permutation(d) for d in hidden))
    return pop, perm


class TestApplyPermutation:
    def test_identity_unchanged(self):
        arch = ArchitectureSpec((4, 8, 3), bn_layers=(True,))
        net = init_population(arch, [0])
        out = apply_permutation(net, PermutationAssignment.identity(arch))
        assert np.array_equal(net.params, out.params)
        assert np.array_equal(net.bn[0][0], out.bn[0][0])

    def test_functional_invariance(self, rng):
        arch = ArchitectureSpec((4, 10, 6, 3), "relu", (True, False))
        net = init_population(arch, [1])
        perm = random_assignment(arch, seed=2)
        out = apply_permutation(net, perm)
        x = rng.normal(size=(100, 4)).astype(np.float32)
        assert np.max(np.abs(forward(net, x) - forward(out, x))) <= 1e-5

    def test_two_unit_swap_layout(self):
        arch = ArchitectureSpec((3, 2, 2), "relu")
        net = init_population(arch, [0])
        perm = PermutationAssignment((np.array([1, 0]),))
        out = apply_permutation(net, perm)
        assert np.array_equal(out.weights[0], net.weights[0][:, [1, 0]])
        assert np.array_equal(out.biases[0], net.biases[0][..., [1, 0]])
        assert np.array_equal(out.weights[1], net.weights[1][..., [1, 0]])

    @given(populations_and_assignments())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_column_gather_matches_per_tensor_reference(self, drawn):
        pop, perm = drawn
        before = (pop.params.copy(), {l: tuple(c.copy() for c in cols) for l, cols in pop.bn.items()})
        out = apply_permutation(pop, perm)
        assert len(out) == len(pop) and out.params.dtype == np.float32
        for i in range(len(pop)):
            flat, stats = reference_permutation(pop, perm, i)
            assert out.params[i].tobytes() == flat.tobytes()
            for l, (mean, var) in stats.items():
                assert out.bn[l][0][i].tobytes() == mean.tobytes()
                assert out.bn[l][1][i].tobytes() == var.tobytes()
        for l, (_, _, count) in pop.bn.items():
            assert out.bn[l][2].tobytes() == count.tobytes()
        assert out.seeds.tobytes() == pop.seeds.tobytes()
        assert out.metrics.tobytes() == pop.metrics.tobytes()
        assert np.array_equal(pop.params, before[0])  # the input is left as it was
        for l, cols in before[1].items():
            assert all(np.array_equal(a, b) for a, b in zip(pop.bn[l], cols))

    def test_wrong_geometry_rejected(self):
        arch = ArchitectureSpec((4, 8, 3))
        with pytest.raises(ShapeError):
            apply_permutation(init_population(arch, [0]),
                              PermutationAssignment((np.arange(7),)))


class TestWeightMatch:
    def test_self_alignment_identity(self):
        net = init_population(ArchitectureSpec((4, 8, 3)), [0])
        result = weight_match(net, net)
        assert result.assignment.is_identity()
        expected = sum(float(np.sum(w.astype(np.float64) ** 2))
                       for w in net.weights)
        expected += sum(float(np.sum(b.astype(np.float64) ** 2))
                        for b in net.biases)
        assert abs(result.objective_trace[-1] - expected) < 1e-6 * abs(expected)
        assert all(type(t) is float for t in result.objective_trace)

    @pytest.mark.parametrize("seed", range(5))
    def test_permutation_recovery(self, seed):
        arch = ArchitectureSpec((4, 10, 8, 3), "relu")
        ref = init_population(arch, [seed])
        perm = random_assignment(arch, seed=seed + 100)
        permuted = apply_permutation(ref, perm)
        result = weight_match(permuted, ref)
        assert np.allclose(result.aligned.params, ref.params, atol=1e-6)
        for got, applied in zip(result.assignment.layer_perms, perm.layer_perms):
            assert np.array_equal(got, invert_permutation(applied))

    def test_monotone_objective(self):
        a = init_population(ArchitectureSpec((4, 12, 3)), [3])
        ref = init_population(ArchitectureSpec((4, 12, 3)), [4])
        trace = weight_match(a, ref).objective_trace
        assert all(t2 >= t1 - 1e-9 for t1, t2 in zip(trace, trace[1:]))

    def test_arch_mismatch(self):
        a = init_population(ArchitectureSpec((4, 8, 3)), [0])
        b = init_population(ArchitectureSpec((4, 9, 3)), [0])
        with pytest.raises(ArgumentError):
            weight_match(a, b)

    def test_one_network_each(self):
        arch = ArchitectureSpec((4, 8, 3))
        with pytest.raises(ArgumentError):
            weight_match(init_population(arch, [0, 1]), init_population(arch, [2]))


class TestCanonicalizePopulation:
    def test_population_of_one(self, tiny_population):
        out = canonicalize_population(tiny_population[0:1])
        assert np.array_equal(out.params, tiny_population.params[0:1])

    def test_permuted_copies_collapse(self):
        arch = ArchitectureSpec((4, 10, 3), "relu")
        base = init_population(arch, [9])
        pop = [base] + [apply_permutation(base, random_assignment(arch, seed=s))
                        for s in range(1, 5)]
        aligned = canonicalize_population(
            Population(arch, np.concatenate([m.params for m in pop])), reference_index=0)
        for row in aligned.params[1:]:
            assert np.allclose(row, base.params[0], atol=1e-6)

    def test_accuracy_preserved(self, tiny_population, blobs):
        _, test = blobs
        aligned = canonicalize_population(tiny_population)
        for before, after in zip(evaluate(tiny_population, test), evaluate(aligned, test)):
            assert abs(before.accuracy - after.accuracy) <= 1e-6

    def test_heterogeneous_rejected(self):
        # A population holds networks of one architecture: rows of another
        # width do not fit it.
        with pytest.raises(ShapeError):
            Population(ArchitectureSpec((4, 8, 3)),
                       np.zeros((2, ArchitectureSpec((4, 9, 3)).param_count()), np.float32))


class TestTransfusion:
    SPEC = AttentionSpec(embed_dim=32, num_heads=4, head_dim=8)

    def test_self_alignment_identity(self):
        attn = random_attention(self.SPEC, seed=0)
        result = transfusion_align(attn, attn)
        assert np.array_equal(result.assignment.inter, np.arange(4))
        for intra in result.assignment.intra:
            assert np.array_equal(intra, np.arange(8))

    @pytest.mark.parametrize("seed", range(5))
    def test_recovery(self, seed, rng):
        ref = random_attention(self.SPEC, seed=seed)
        gen = np.random.default_rng(seed + 77)
        inter = gen.permutation(4)
        intra = tuple(gen.permutation(8) for _ in range(4))
        applied = AttentionAssignment(inter, intra)
        permuted = apply_attention_assignment(ref, applied)
        result = transfusion_align(permuted, ref)
        tokens = rng.normal(size=(10, 32))
        base = mha_forward(ref, tokens)
        aligned_out = mha_forward(result.aligned, tokens)
        assert np.max(np.abs(aligned_out - base)) <= 1e-4
        # spectra of random heads are generically unique -> exact recovery
        assert np.array_equal(result.aligned.w_q, ref.w_q) or \
            np.allclose(result.aligned.w_q, ref.w_q, atol=1e-10)

    def test_mha_invariance_under_assignment(self, rng):
        attn = random_attention(self.SPEC, seed=5)
        gen = np.random.default_rng(123)
        assignment = AttentionAssignment(
            gen.permutation(4), tuple(gen.permutation(8) for _ in range(4)))
        permuted = apply_attention_assignment(attn, assignment)
        tokens = rng.normal(size=(6, 32))
        assert np.max(np.abs(mha_forward(attn, tokens)
                             - mha_forward(permuted, tokens))) <= 1e-4

    def test_spectral_distance_shuffle_invariant(self):
        from weightflow.canonicalize import _spectral_distances
        a = random_attention(self.SPEC, seed=1)
        b = random_attention(self.SPEC, seed=2)
        d1 = _spectral_distances(a, b)
        shuffled = b.copy()
        gen = np.random.default_rng(0)
        for h in range(4):
            p = gen.permutation(8)
            shuffled.w_q[h] = b.w_q[h][p]
            shuffled.w_k[h] = b.w_k[h][p]
            shuffled.w_v[h] = b.w_v[h][p]
        d2 = _spectral_distances(a, shuffled)
        assert np.allclose(d1, d2, atol=1e-8)
