"""Permutation-symmetry resolution.

Contains an exact linear assignment solver with lexicographic tie-breaking,
hidden-unit permutation of a `nn_core.Population` in place through its
stacked views, coordinate-descent weight matching of one network against
a reference network (both one-member populations), and two-level
(inter-head / intra-head) alignment for toy attention blocks.

The assignment solver makes one scipy `linear_sum_assignment` call and then
works in numpy only. Dual potentials from Bellman-Ford shortest paths on
that optimum's residual graph give every edge a reduced cost, and a
permutation's loss against the optimum is the sum of the reduced costs
along the cycles that lead to it. The answer is the lexicographically
smallest permutation whose loss is within `_TIE_TOL` times the score scale.
An edge can lead to another such permutation only when it is tight and lies
on an alternating cycle of tight edges (Uno, ISAAC 1997); usually none
does, and scipy's optimum is returned as it is. That costs one O(n^3)
Bellman-Ford in numpy; ties cost one more per row that has a tied smaller
column. No further LAP solve is made.

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


def _shortest_paths(cost: np.ndarray, dist: np.ndarray):
    """Bellman-Ford on the dense graph `cost` (cost[k, m] for the edge
    k -> m, inf for none) toward the nodes whose start `dist` is finite.

    Returns each node's distance, the node after it on its path (-1 where
    the start value stands) and the round in which its distance last fell
    (0 where the start value stands). Stops after len(dist) rounds.
    """
    n = len(dist)
    nodes = np.arange(n)
    nxt = np.full(n, -1)
    depth = np.zeros(n, dtype=np.int64)
    for rnd in range(1, n + 1):
        via = cost + dist
        best = via.argmin(axis=1)
        step = via[nodes, best]
        lower = step < dist
        if not lower.any():
            break
        dist = np.where(lower, step, dist)
        nxt[lower], depth[lower] = best[lower], rnd
    return dist, nxt, depth


def solve_lap_max(score: np.ndarray) -> np.ndarray:
    """Permutation pi maximizing sum_i score[i, pi[i]], exact.

    Ties are broken toward the lexicographically smallest permutation whose
    loss against the optimum is at most _TIE_TOL * max(1, |optimum|,
    max|score|): row by row, the first column that still admits such a
    completion.

    One scipy solve gives an optimum o. Over columns, with r the row o puts
    on column k, moving r to column j costs W[k, j] = score[r, k] -
    score[r, j]. An optimum leaves no negative cycle, so Bellman-Ford
    distances phi make the reduced costs R = W + phi[:, None] - phi[None, :]
    non-negative, and a permutation's loss is the sum of R along the cycles
    that take o to it. An edge is tight when its R is within the tolerance.
    When the round in which each distance last fell rises along every tight
    edge, no tight edge lies on a cycle and o is returned. Otherwise rows
    are fixed in order: row i takes a smaller column j when the cheapest
    alternating cycle through i -> j keeps the loss within the tolerance,
    and o is rotated along that cycle; potentials keep the cycle costs
    non-negative, as in the Hungarian method. Each Bellman-Ford is O(n^3)
    numpy work at most; no further LAP solve is made.
    """
    score = np.asarray(score, dtype=np.float64)
    if score.ndim != 2 or score.shape[0] != score.shape[1]:
        raise ArgumentError(f"score must be square, got shape {score.shape}")
    if score.size == 0:
        raise ArgumentError("score must be nonempty")
    if not np.isfinite(score).all():
        raise ArgumentError("score contains non-finite entries")
    n = score.shape[0]
    rows, cur = _linear_sum_assignment()(score, maximize=True)
    optimum = float(score[rows, cur].sum())
    tol = _TIE_TOL * max(1.0, abs(optimum), np.abs(score).max())
    holder = np.argsort(cur)                    # column -> its row in o
    by_col = score[holder]
    wt = np.ascontiguousarray((np.diagonal(by_col)[:, None] - by_col).T)  # W.T
    phi, _, depth = _shortest_paths(wt, np.zeros(n))
    rt = wt + phi - phi[:, None]                # R.T: rt[j, k] = R[k, j]
    tight = rt <= tol
    np.fill_diagonal(tight, False)
    if not (tight & (depth >= depth[:, None])).any():
        return cur
    q = np.maximum(rt[:, cur].T, 0.0)            # q[i, j] = R[o(i), j]
    usable = q <= tol
    free = np.ones(n, dtype=bool)               # columns of rows i and below
    pot = np.zeros(n)
    loss = 0.0
    for i in range(n):
        t = cur[i]
        lift = q[i] - q[i, t] + pot[t] - pot    # reduced cost of row i -> j
        if (free[:t] & usable[i, :t] & (loss + lift[:t] <= tol)).any():
            f = np.flatnonzero(free)
            held = holder[f]
            sub = np.ix_(held, f)
            g = q[sub] - q[held, f][:, None] + pot[f][:, None] - pot[f]
            g = np.where(usable[sub], np.maximum(g, 0.0), np.inf)
            ti = int(np.searchsorted(f, t))
            start = np.full(len(f), np.inf)
            start[ti] = 0.0
            dist, nxt, _ = _shortest_paths(g, start)
            total = loss + g[ti] + dist
            admissible = (f < t) & (total <= tol)
            if admissible.any():
                k = int(np.argmax(admissible))
                path = [k]
                while path[-1] != ti:
                    path.append(int(nxt[path[-1]]))
                path = f[path]
                movers = holder[path[:-1]]
                cur[movers], holder[path[1:]] = path[1:], movers
                cur[i], holder[path[0]] = path[0], i
                loss = float(total[k])
                pot[f] -= np.minimum(dist, dist[k])
        free[cur[i]] = False
    return cur


def solve_lap_min(cost: np.ndarray) -> np.ndarray:
    """Permutation minimizing the total cost (same tie-breaking rule)."""
    return solve_lap_max(-np.asarray(cost, dtype=np.float64))


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


def _permute(pop: Population, perms) -> None:
    """Reorder the hidden units of every member of `pop` in place through its
    stacked views, unit i of layer l taking unit perms[l][i]: the rows of
    W_l, the columns of W_(l+1), and the entries of b_l and of BN layer l's
    gamma, beta, running means and variances. The input and output layers
    are never permuted."""
    for l, p in enumerate(perms):
        pop.weights[l][:] = pop.weights[l][:, p]
        pop.weights[l + 1][:] = pop.weights[l + 1][..., p]
        for v in (pop.biases[l], *pop.bn_views.get(l, ())[:4]):
            v[:] = v[..., p]


def apply_permutation(pop: Population, perm: PermutationAssignment) -> Population:
    """Functionally invariant reindexing of the hidden units of every member,
    on a copy of `pop`. Counts, seeds and metrics are unchanged."""
    arch = pop.arch
    if len(perm.layer_perms) != arch.num_hidden:
        raise ShapeError(
            f"assignment has {len(perm.layer_perms)} layers, arch has {arch.num_hidden}"
        )
    for l, p in enumerate(perm.layer_perms):
        if len(p) != arch.layer_dims[l + 1]:
            raise ShapeError(f"permutation {l} has length {len(p)}, "
                             f"expected {arch.layer_dims[l + 1]}")
    out = Population(arch, pop.params.copy(),
                     {l: tuple(c.copy() for c in cols) for l, cols in pop.bn.items()},
                     pop.seeds.copy(), pop.metrics.copy())
    _permute(out, perm.layer_perms)
    return out


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
    return [v[0, 0] for v in vectors]


def weight_match(theta_a: Population, theta_ref: Population,
                 max_iter: int = 100) -> WeightMatchResult:
    """Coordinate descent over per-layer LAPs aligning theta_a to theta_ref,
    two one-member populations.

    Each sweep visits hidden layers in a seeded random order (seed derived
    from the reference network's seed) and stops early once a full sweep
    changes no permutation. The objective is the inner product of the
    reference's flat vector with the permuted one: weight matrices, biases
    and BN gamma/beta. It is non-decreasing per sweep. Scores and objective
    are float64, read from float64 copies of both networks.
    """
    if theta_a.arch != theta_ref.arch:
        raise ArgumentError("weight_match requires identical architectures")
    if len(theta_a) != 1 or len(theta_ref) != 1:
        raise ArgumentError("weight_match aligns one network to one reference")
    if max_iter < 1:
        raise ArgumentError("max_iter must be >= 1")
    arch = theta_a.arch
    n_hidden = arch.num_hidden
    a64, ref64 = (Population(arch, net.params.astype(np.float64))
                  for net in (theta_a, theta_ref))
    work = Population(arch, a64.params.copy())  # a64 permuted, for the trace
    wa_all = [w[0] for w in a64.weights]
    wr_all = [w[0] for w in ref64.weights]
    perms = [np.arange(arch.layer_dims[l + 1]) for l in range(n_hidden)]
    trace = []
    for sweep in range(max_iter):
        order_rng = make_rng(int(theta_ref.seeds[0]), "match", sweep)
        changed = False
        for l in order_rng.permutation(n_hidden):
            l = int(l)
            wa = wa_all[l]
            if l - 1 >= 0:
                wa = wa[:, perms[l - 1]]
            score = wr_all[l] @ wa.T
            wa_next = wa_all[l + 1]
            if l + 1 < n_hidden:
                wa_next = wa_next[perms[l + 1], :]
            score += wr_all[l + 1].T @ wa_next
            for vr, va in zip(_unit_vectors(ref64, l), _unit_vectors(a64, l)):
                score += np.outer(vr, va)
            new_p = solve_lap_max(score)
            if not np.array_equal(new_p, perms[l]):
                changed = True
            perms[l] = new_p
        work.params[:] = a64.params
        _permute(work, perms)
        trace.append(float(ref64.params[0] @ work.params[0]))
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
