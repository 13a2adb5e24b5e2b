"""Permutation-symmetry resolution.

Contains scipy's exact linear assignment solver with lexicographic tie-breaking,
generic permutation application driven by an explicit per-tensor axis map,
coordinate-descent weight matching against a reference checkpoint, and
two-level (inter-head / intra-head) alignment for toy attention blocks.

Permutation vectors use gather convention: applying p to an axis produces
new[i] = old[p[i]].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._scipy import compiled_scipy
from .errors import ArgumentError, ShapeError
from .nn_core import ArchitectureSpec, AttentionWeights, Population, WeightCheckpoint
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
# Permutation spec and application for MLP / BN-MLP checkpoints


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


def permutation_spec(arch: ArchitectureSpec) -> dict:
    """Map every parameter tensor to the permutation label acting on each axis.

    Labels are 'P{l}' for hidden layer l; None marks a fixed axis. Input and
    output layers are never permuted. BN tensors, including running
    statistics, ride along with their layer's permutation.
    """
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


def _checkpoint_tensors(ckpt: WeightCheckpoint) -> dict:
    tensors = {}
    for l in range(ckpt.arch.num_layers):
        tensors[f"W{l}"] = ckpt.weights[l]
        tensors[f"b{l}"] = ckpt.biases[l]
        if ckpt.arch.has_bn(l):
            st = ckpt.bn[l]
            tensors[f"bn{l}.gamma"] = st.gamma
            tensors[f"bn{l}.beta"] = st.beta
            tensors[f"bn{l}.running_mean"] = st.running_mean
            tensors[f"bn{l}.running_var"] = st.running_var
    return tensors


def apply_permutation(ckpt: WeightCheckpoint,
                      perm: PermutationAssignment) -> WeightCheckpoint:
    """Functionally invariant reindexing of hidden units."""
    arch = ckpt.arch
    if len(perm.layer_perms) != arch.num_hidden:
        raise ShapeError(
            f"assignment has {len(perm.layer_perms)} layers, arch has {arch.num_hidden}"
        )
    for l, p in enumerate(perm.layer_perms):
        if len(p) != arch.layer_dims[l + 1]:
            raise ShapeError(f"permutation {l} has length {len(p)}, "
                             f"expected {arch.layer_dims[l + 1]}")
    out = ckpt.copy()
    spec = permutation_spec(arch)
    tensors = _checkpoint_tensors(out)
    perms = {f"P{l}": perm.layer_perms[l] for l in range(arch.num_hidden)}
    for name, axis_labels in spec.items():
        t = tensors[name]
        for axis, label in enumerate(axis_labels):
            if label is not None:
                t[...] = np.take(t, perms[label], axis=axis)
    return out


def random_assignment(arch: ArchitectureSpec, seed: int = 0) -> PermutationAssignment:
    rng = make_rng(seed, "match", 99)
    return PermutationAssignment(tuple(rng.permutation(arch.layer_dims[l + 1])
                                       for l in range(arch.num_hidden)))


# ---------------------------------------------------------------------------
# Git Re-Basin weight matching


@dataclass
class WeightMatchResult:
    assignment: PermutationAssignment
    aligned: WeightCheckpoint
    objective_trace: list  # full-objective value after each sweep


def _vector_terms(ckpt: WeightCheckpoint, l: int):
    """Per-unit vectors permuted by P_l beyond the weight rows: b, gamma, beta."""
    terms = [ckpt.biases[l].astype(np.float64)]
    if ckpt.arch.has_bn(l):
        terms.append(ckpt.bn[l].gamma.astype(np.float64))
        terms.append(ckpt.bn[l].beta.astype(np.float64))
    return terms


def _match_objective(ref: WeightCheckpoint, a: WeightCheckpoint,
                     perms: list) -> float:
    """Sum of Frobenius inner products between ref and permuted-a tensors."""
    arch = ref.arch
    total = 0.0
    for l in range(arch.num_layers):
        wa = a.weights[l].astype(np.float64)
        if 0 <= l - 1 < arch.num_hidden:
            wa = wa[:, perms[l - 1]]
        if l < arch.num_hidden:
            wa = wa[perms[l], :]
        total += float(np.sum(ref.weights[l].astype(np.float64) * wa))
        if l < arch.num_hidden:
            for vr, va in zip(_vector_terms(ref, l), _vector_terms(a, l)):
                total += float(vr @ va[perms[l]])
        else:
            for vr, va in zip(_vector_terms(ref, l), _vector_terms(a, l)):
                total += float(vr @ va)
    return total


def weight_match(theta_a: WeightCheckpoint, theta_ref: WeightCheckpoint,
                 max_iter: int = 100) -> WeightMatchResult:
    """Coordinate descent over per-layer LAPs aligning theta_a to theta_ref.

    Each sweep visits hidden layers in a seeded random order (seed derived
    from the reference checkpoint's metadata) and stops early once a full
    sweep changes no permutation. The objective includes biases and BN
    gamma/beta alongside the weight matrices and is non-decreasing per sweep.
    """
    if theta_a.arch != theta_ref.arch:
        raise ArgumentError("weight_match requires identical architectures")
    if max_iter < 1:
        raise ArgumentError("max_iter must be >= 1")
    arch = theta_a.arch
    n_hidden = arch.num_hidden
    perms = [np.arange(arch.layer_dims[l + 1]) for l in range(n_hidden)]
    trace = []
    if n_hidden == 0:
        trace.append(_match_objective(theta_ref, theta_a, perms))
    for sweep in range(max_iter if n_hidden else 0):
        order_rng = make_rng(theta_ref.seed, "match", sweep)
        changed = False
        for l in order_rng.permutation(n_hidden):
            l = int(l)
            wa = theta_a.weights[l].astype(np.float64)
            if l - 1 >= 0:
                wa = wa[:, perms[l - 1]]
            score = theta_ref.weights[l].astype(np.float64) @ wa.T
            wa_next = theta_a.weights[l + 1].astype(np.float64)
            if l + 1 < n_hidden:
                wa_next = wa_next[perms[l + 1], :]
            score += theta_ref.weights[l + 1].astype(np.float64).T @ wa_next
            for vr, va in zip(_vector_terms(theta_ref, l), _vector_terms(theta_a, l)):
                score += np.outer(vr, va)
            new_p = solve_lap_max(score)
            if not np.array_equal(new_p, perms[l]):
                changed = True
            perms[l] = new_p
        trace.append(_match_objective(theta_ref, theta_a, perms))
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
    ref = pop.member(reference_index)
    aligned = [ref if i == reference_index
               else weight_match(pop.member(i), ref, max_iter=max_iter).aligned
               for i in range(len(pop))]
    return Population.from_checkpoints(pop.arch, aligned)


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
