"""Permutation-symmetry resolution.

Contains scipy's exact linear assignment solver with lexicographic tie-breaking,
hidden-unit permutation of a `nn_core.Population` as one gather over its
parameter columns, coordinate-descent weight matching of one network against
a reference network (both one-member populations), and two-level
(inter-head / intra-head) alignment for toy attention blocks.

Permutation vectors use gather convention: applying p to an axis produces
new[i] = old[p[i]].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._scipy import compiled_scipy
from .errors import ArgumentError, ShapeError
from .nn_core import ArchitectureSpec, AttentionWeights, Population
from .rng import make_rng

_TIE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Linear assignment


@functools.cache
def _linear_sum_assignment():
    """scipy's linear_sum_assignment, without importing scipy.optimize."""
    return compiled_scipy("optimize", "_lsap", "linear_sum_assignment")


def _lap_max_value(score: np.ndarray) -> float:
    rows, cols = _linear_sum_assignment()(score, maximize=True)
    return float(score[rows, cols].sum())


def solve_lap_max(score: np.ndarray) -> np.ndarray:
    """Permutation pi maximizing sum_i score[i, pi[i]], exact.

    Ties are broken toward the lexicographically smallest permutation: row
    by row, take the first column that still admits an optimal completion.
    """
    score = np.asarray(score, dtype=np.float64)
    if score.ndim != 2 or score.shape[0] != score.shape[1]:
        raise ArgumentError(f"score must be square, got shape {score.shape}")
    if score.size == 0:
        raise ArgumentError("score must be nonempty")
    if not np.isfinite(score).all():
        raise ArgumentError("score contains non-finite entries")
    n = score.shape[0]
    optimum = _lap_max_value(score)
    tol = _TIE_TOL * max(1.0, abs(optimum), np.abs(score).max())
    cols = list(range(n))
    perm = np.empty(n, dtype=np.int64)
    prefix = 0.0
    for i in range(n):
        for j in cols:
            rest = score[np.ix_(range(i + 1, n), [c for c in cols if c != j])]
            if prefix + score[i, j] + _lap_max_value(rest) >= optimum - tol:
                break
        else:  # numerically unreachable; fall back to the first free column
            j = cols[0]
        perm[i] = j
        prefix += score[i, j]
        cols.remove(j)
    return perm


def solve_lap_min(cost: np.ndarray) -> np.ndarray:
    """Permutation minimizing the total cost (same tie-breaking rule)."""
    return solve_lap_max(-np.asarray(cost, dtype=np.float64))


def invert_permutation(p: np.ndarray) -> np.ndarray:
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p))
    return inv


# ---------------------------------------------------------------------------
# Hidden-unit permutation of MLP / BN-MLP populations


@dataclass(frozen=True)
class PermutationAssignment:
    """One permutation vector per hidden layer (gather convention)."""

    layer_perms: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "layer_perms",
            tuple(np.asarray(p, dtype=np.int64) for p in self.layer_perms),
        )
        for p in self.layer_perms:
            if sorted(p.tolist()) != list(range(len(p))):
                raise ArgumentError("permutation vector is not a bijection")

    @classmethod
    def identity(cls, arch: ArchitectureSpec) -> "PermutationAssignment":
        return cls(tuple(np.arange(arch.layer_dims[l + 1])
                         for l in range(arch.num_hidden)))

    def is_identity(self) -> bool:
        return all((p == np.arange(len(p))).all() for p in self.layer_perms)


def _column_index(arch: ArchitectureSpec, perms) -> np.ndarray:
    """Gather index over the P columns of the flat vector that permutes the
    hidden units by `perms`: W_l takes rows perms[l] and columns
    perms[l - 1], and b_l, gamma_l and beta_l take entries perms[l]. The
    input and output layers are never permuted."""
    index, pos = [], 0
    for l in range(arch.num_layers):
        d_in, d_out = arch.layer_dims[l], arch.layer_dims[l + 1]
        rows = perms[l] if l < arch.num_hidden else np.arange(d_out)
        cols = perms[l - 1] if l > 0 else np.arange(d_in)
        index.append(pos + (rows[:, None] * d_in + cols).ravel())
        pos += d_out * d_in
        for _ in range(3 if arch.has_bn(l) else 1):  # b, then gamma and beta
            index.append(pos + rows)
            pos += d_out
    return np.concatenate(index)


def apply_permutation(pop: Population, perm: PermutationAssignment) -> Population:
    """Functionally invariant reindexing of the hidden units of every member:
    one gather over the parameter columns and one of each BN layer's running
    means and variances. Counts, seeds and metrics are unchanged."""
    arch = pop.arch
    if len(perm.layer_perms) != arch.num_hidden:
        raise ShapeError(
            f"assignment has {len(perm.layer_perms)} layers, arch has {arch.num_hidden}"
        )
    for l, p in enumerate(perm.layer_perms):
        if len(p) != arch.layer_dims[l + 1]:
            raise ShapeError(f"permutation {l} has length {len(p)}, "
                             f"expected {arch.layer_dims[l + 1]}")
    perms = perm.layer_perms
    bn = {l: (mean[:, perms[l]], var[:, perms[l]], count.copy())
          for l, (mean, var, count) in pop.bn.items()}
    return Population(arch, pop.params[:, _column_index(arch, perms)], bn,
                      pop.seeds.copy(), pop.metrics.copy())


def random_assignment(arch: ArchitectureSpec, seed: int = 0) -> PermutationAssignment:
    rng = make_rng(seed, "match", 99)
    return PermutationAssignment(tuple(rng.permutation(arch.layer_dims[l + 1])
                                       for l in range(arch.num_hidden)))


# ---------------------------------------------------------------------------
# Git Re-Basin weight matching


@dataclass
class WeightMatchResult:
    assignment: PermutationAssignment
    aligned: Population
    objective_trace: list  # full-objective value after each sweep


def _unit_vectors(net: Population, l: int):
    """Per-unit vectors permuted by P_l beyond the weight rows: b, gamma, beta."""
    vectors = [net.biases[l]]
    if l in net.bn_views:
        vectors += net.bn_views[l][:2]
    return [v[0, 0].astype(np.float64) for v in vectors]


def weight_match(theta_a: Population, theta_ref: Population,
                 max_iter: int = 100) -> WeightMatchResult:
    """Coordinate descent over per-layer LAPs aligning theta_a to theta_ref,
    two one-member populations.

    Each sweep visits hidden layers in a seeded random order (seed derived
    from the reference network's seed) and stops early once a full sweep
    changes no permutation. The objective is the inner product of the
    reference's flat vector with the permuted one: weight matrices, biases
    and BN gamma/beta. It is non-decreasing per sweep.
    """
    if theta_a.arch != theta_ref.arch:
        raise ArgumentError("weight_match requires identical architectures")
    if len(theta_a) != 1 or len(theta_ref) != 1:
        raise ArgumentError("weight_match aligns one network to one reference")
    if max_iter < 1:
        raise ArgumentError("max_iter must be >= 1")
    arch = theta_a.arch
    n_hidden = arch.num_hidden
    ref_vec = theta_ref.params[0].astype(np.float64)
    a_vec = theta_a.params[0].astype(np.float64)
    wa_all = [w[0] for w in theta_a.weights]
    wr_all = [w[0] for w in theta_ref.weights]
    perms = [np.arange(arch.layer_dims[l + 1]) for l in range(n_hidden)]
    trace = []
    if n_hidden == 0:
        trace.append(float(ref_vec @ a_vec))
    for sweep in range(max_iter if n_hidden else 0):
        order_rng = make_rng(int(theta_ref.seeds[0]), "match", sweep)
        changed = False
        for l in order_rng.permutation(n_hidden):
            l = int(l)
            wa = wa_all[l].astype(np.float64)
            if l - 1 >= 0:
                wa = wa[:, perms[l - 1]]
            score = wr_all[l].astype(np.float64) @ wa.T
            wa_next = wa_all[l + 1].astype(np.float64)
            if l + 1 < n_hidden:
                wa_next = wa_next[perms[l + 1], :]
            score += wr_all[l + 1].astype(np.float64).T @ wa_next
            for vr, va in zip(_unit_vectors(theta_ref, l), _unit_vectors(theta_a, l)):
                score += np.outer(vr, va)
            new_p = solve_lap_max(score)
            if not np.array_equal(new_p, perms[l]):
                changed = True
            perms[l] = new_p
        trace.append(float(ref_vec @ a_vec[_column_index(arch, perms)]))
        if not changed:
            break
    assignment = PermutationAssignment(tuple(perms))
    return WeightMatchResult(assignment=assignment,
                             aligned=apply_permutation(theta_a, assignment),
                             objective_trace=trace)


def canonicalize_population(pop: Population, reference_index: int = 0,
                            max_iter: int = 100) -> Population:
    """Weight-match every member of `pop` to member `reference_index`."""
    if len(pop) == 0:
        raise ArgumentError("empty population")
    ref = pop[reference_index:reference_index + 1]
    members = [ref if i == reference_index
               else weight_match(pop[i:i + 1], ref, max_iter=max_iter).aligned
               for i in range(len(pop))]
    bn = {l: tuple(np.concatenate([m.bn[l][k] for m in members]) for k in range(3))
          for l in pop.bn}
    return Population(pop.arch, np.concatenate([m.params for m in members]), bn,
                      pop.seeds.copy(), pop.metrics.copy())


# ---------------------------------------------------------------------------
# TransFusion-style alignment for toy attention blocks


@dataclass(frozen=True)
class AttentionAssignment:
    """Inter-head permutation plus one intra-head row permutation per slot."""

    inter: np.ndarray          # output slot i takes original head inter[i]
    intra: tuple               # intra[i]: row permutation applied to that head

    def __post_init__(self):
        object.__setattr__(self, "inter", np.asarray(self.inter, dtype=np.int64))
        object.__setattr__(
            self, "intra",
            tuple(np.asarray(p, dtype=np.int64) for p in self.intra),
        )

    @classmethod
    def identity(cls, num_heads: int, head_dim: int) -> "AttentionAssignment":
        return cls(np.arange(num_heads),
                   tuple(np.arange(head_dim) for _ in range(num_heads)))

    def is_identity(self) -> bool:
        return ((self.inter == np.arange(len(self.inter))).all()
                and all((p == np.arange(len(p))).all() for p in self.intra))

    def compose(self, later: "AttentionAssignment") -> "AttentionAssignment":
        """Assignment equivalent to applying self first, then `later`."""
        inter = self.inter[later.inter]
        intra = tuple(self.intra[later.inter[i]][later.intra[i]]
                      for i in range(len(self.inter)))
        return AttentionAssignment(inter, intra)


def apply_attention_assignment(attn: AttentionWeights,
                               asg: AttentionAssignment) -> AttentionWeights:
    """Reorder heads and per-head rows; w_o column blocks follow along."""
    attn.validate()
    h, hd = attn.num_heads, attn.head_dim
    if len(asg.inter) != h or any(len(p) != hd for p in asg.intra):
        raise ArgumentError("assignment geometry mismatch")
    out = attn.copy()
    col_index = np.empty(h * hd, dtype=np.int64)
    for i in range(h):
        src = asg.inter[i]
        for name in ("w_q", "w_k", "w_v"):
            getattr(out, name)[i] = getattr(attn, name)[src][asg.intra[i], :]
        col_index[i * hd:(i + 1) * hd] = src * hd + asg.intra[i]
    out.w_o = attn.w_o[:, col_index]
    return out


def _spectral_distances(attn_ref: AttentionWeights, attn_a: AttentionWeights) -> np.ndarray:
    """D[i, j] = sum over q,k,v of || svals(ref head i) - svals(a head j) ||_F."""
    h = attn_ref.num_heads
    d = np.zeros((h, h))
    for name in ("w_q", "w_k", "w_v"):
        ref_s = [np.linalg.svd(getattr(attn_ref, name)[i], compute_uv=False)
                 for i in range(h)]
        a_s = [np.linalg.svd(getattr(attn_a, name)[j], compute_uv=False)
               for j in range(h)]
        for i in range(h):
            for j in range(h):
                d[i, j] += float(np.linalg.norm(ref_s[i] - a_s[j]))
    return d


@dataclass
class TransfusionResult:
    assignment: AttentionAssignment
    aligned: AttentionWeights


def transfusion_align(attn_a: AttentionWeights, attn_ref: AttentionWeights,
                      iters: int = 10) -> TransfusionResult:
    """Two-level alignment of a toy attention block to a reference.

    Stage 1 pairs heads by minimizing summed singular-value-spectrum
    distances; stage 2 maximizes per-head Frobenius inner products over the
    hidden (row) axis of the q/k/v projections. Function is preserved
    exactly up to float reassociation.
    """
    attn_a.validate()
    attn_ref.validate()
    if attn_a.w_q.shape != attn_ref.w_q.shape:
        raise ArgumentError("attention geometry mismatch")
    if iters < 1:
        raise ArgumentError("iters must be >= 1")
    h, hd = attn_a.num_heads, attn_a.head_dim
    total = AttentionAssignment.identity(h, hd)
    current = attn_a.copy()
    for _ in range(iters):
        inter = solve_lap_min(_spectral_distances(attn_ref, current))
        intra = []
        for i in range(h):
            src = inter[i]
            score = np.zeros((hd, hd))
            for name in ("w_q", "w_k", "w_v"):
                score += (getattr(attn_ref, name)[i]
                          @ getattr(current, name)[src].T)
            intra.append(solve_lap_max(score))
        step = AttentionAssignment(inter, tuple(intra))
        if step.is_identity():
            break
        total = total.compose(step)
        current = apply_attention_assignment(current, step)
    return TransfusionResult(assignment=total, aligned=current)
