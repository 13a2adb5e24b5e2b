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
from weightflow.errors import ArgumentError, DataError
from weightflow.nn_core import (ArchitectureSpec, AttentionSpec, Population,
                                evaluate, flatten, forward, init_weights,
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


class TestApplyPermutation:
    def test_identity_unchanged(self):
        arch = ArchitectureSpec((4, 8, 3), bn_layers=(True,))
        ckpt = init_weights(arch, seed=0)
        out = apply_permutation(ckpt, PermutationAssignment.identity(arch))
        assert np.array_equal(flatten(ckpt), flatten(out))
        assert np.array_equal(ckpt.bn[0].running_mean, out.bn[0].running_mean)

    def test_functional_invariance(self, rng):
        arch = ArchitectureSpec((4, 10, 6, 3), "relu", (True, False))
        ckpt = init_weights(arch, seed=1)
        perm = random_assignment(arch, seed=2)
        out = apply_permutation(ckpt, perm)
        x = rng.normal(size=(100, 4)).astype(np.float32)
        assert np.max(np.abs(forward(ckpt, x) - forward(out, x))) <= 1e-5

    def test_two_unit_swap_layout(self):
        arch = ArchitectureSpec((3, 2, 2), "relu")
        ckpt = init_weights(arch, seed=0)
        perm = PermutationAssignment((np.array([1, 0]),))
        out = apply_permutation(ckpt, perm)
        assert np.array_equal(out.weights[0], ckpt.weights[0][[1, 0]])
        assert np.array_equal(out.biases[0], ckpt.biases[0][[1, 0]])
        assert np.array_equal(out.weights[1], ckpt.weights[1][:, [1, 0]])


class TestWeightMatch:
    def test_self_alignment_identity(self):
        ckpt = init_weights(ArchitectureSpec((4, 8, 3)), seed=0)
        result = weight_match(ckpt, ckpt)
        assert result.assignment.is_identity()
        expected = sum(float(np.sum(w.astype(np.float64) ** 2))
                       for w in ckpt.weights)
        expected += sum(float(np.sum(b.astype(np.float64) ** 2))
                        for b in ckpt.biases)
        assert abs(result.objective_trace[-1] - expected) < 1e-6 * abs(expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_permutation_recovery(self, seed):
        arch = ArchitectureSpec((4, 10, 8, 3), "relu")
        ref = init_weights(arch, seed=seed)
        perm = random_assignment(arch, seed=seed + 100)
        permuted = apply_permutation(ref, perm)
        result = weight_match(permuted, ref)
        assert np.allclose(flatten(result.aligned), flatten(ref), atol=1e-6)
        for got, applied in zip(result.assignment.layer_perms, perm.layer_perms):
            assert np.array_equal(got, invert_permutation(applied))

    def test_monotone_objective(self):
        a = init_weights(ArchitectureSpec((4, 12, 3)), seed=3)
        ref = init_weights(ArchitectureSpec((4, 12, 3)), seed=4)
        trace = weight_match(a, ref).objective_trace
        assert all(t2 >= t1 - 1e-9 for t1, t2 in zip(trace, trace[1:]))

    def test_arch_mismatch(self):
        a = init_weights(ArchitectureSpec((4, 8, 3)), seed=0)
        b = init_weights(ArchitectureSpec((4, 9, 3)), seed=0)
        with pytest.raises(ArgumentError):
            weight_match(a, b)


class TestCanonicalizePopulation:
    def test_population_of_one(self, tiny_population):
        first = tiny_population.member(0)
        out = canonicalize_population(Population.from_checkpoints(first.arch, [first]))
        assert np.array_equal(flatten(out.member(0)), flatten(tiny_population.member(0)))

    def test_permuted_copies_collapse(self):
        arch = ArchitectureSpec((4, 10, 3), "relu")
        base = init_weights(arch, seed=9)
        pop = [base] + [apply_permutation(base, random_assignment(arch, seed=s))
                        for s in range(1, 5)]
        aligned = canonicalize_population(Population.from_checkpoints(arch, pop),
                                          reference_index=0)
        for ckpt in [aligned.member(i) for i in range(1, len(aligned))]:
            assert np.allclose(flatten(ckpt), flatten(base), atol=1e-6)

    def test_accuracy_preserved(self, tiny_population, blobs):
        _, test = blobs
        aligned = canonicalize_population(tiny_population)
        for before, after in [(tiny_population.member(i), aligned.member(i))
                              for i in range(len(aligned))]:
            assert abs(evaluate(before, test).accuracy
                       - evaluate(after, test).accuracy) <= 1e-6

    def test_heterogeneous_rejected(self):
        pop = [init_weights(ArchitectureSpec((4, 8, 3)), seed=0),
               init_weights(ArchitectureSpec((4, 9, 3)), seed=0)]
        with pytest.raises((ArgumentError, DataError)):
            canonicalize_population(Population.from_checkpoints(pop[0].arch, pop))


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
