"""Dense reference implementations that the tests compare the package against.

Everything here is plain n x n algebra: identities joined on with
``np.kron``, projectors and generators as full matrices, commutators as two
matrix products, exponentials from scipy's ``expm``. None of it is used by
the package itself. The leg cases shared by the tests of leg-wise kernels
live here too.
"""

from itertools import product
from math import factorial
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from gapflow.expansion import Border, Branch, _Expander
from gapflow.flow import PRUNE_THRESHOLD, set_entry
from gapflow.geometry import LatticeSpec, Rect, minimal_rectangle
from gapflow.schwinger import (
    _series_tail,
    check_g_gap,
    rotation_border_norm,
    rotation_delta,
    rotation_plane,
)
from gapflow.tensor import LocalOp, border_norm, embed, permute_legs
from gapflow.verify import _shape_vectors


def kron_embed(op: LocalOp, into: Rect) -> LocalOp:
    """``op`` (x) I on ``into``: the kron product with the identity on the
    other sites, with its legs then permuted into ``into``'s site order."""
    if not into.contains(op.support):
        raise ValueError(f"support {op.support} not contained in {into}")
    src, dst, M = op.support.sites(), into.sites(), op.M
    extra = [s for s in dst if s not in set(src)]
    big = np.kron(op.matrix, np.eye(M ** len(extra), dtype=complex))
    pos = {site: i for i, site in enumerate(src + extra)}
    perm = [pos[site] for site in dst]
    n = len(dst)
    tens = big.reshape((M,) * (2 * n)).transpose(perm + [n + p for p in perm])
    return LocalOp(into, tens.reshape(M**n, M**n), M)


def three_clause_compare(a: Rect, b: Rect) -> int:
    """The flow order clause by clause: larger circumference succeeds; at equal
    circumference the smaller first differing side length succeeds; at equal
    shape the larger last differing base coordinate succeeds."""
    if a.circumference != b.circumference:
        return 1 if a.circumference > b.circumference else -1
    for ka, kb in zip(a.k, b.k):
        if ka != kb:
            return 1 if ka < kb else -1
    for qa, qb in zip(reversed(a.q), reversed(b.q)):
        if qa != qb:
            return 1 if qa > qb else -1
    return 0


def op_norm(op: LocalOp | np.ndarray) -> float:
    """Largest singular value."""
    mat = op.matrix if isinstance(op, LocalOp) else np.asarray(op)
    return float(np.linalg.norm(mat, 2))


def identity_op(support: Rect, M: int) -> LocalOp:
    return LocalOp(support, np.eye(M**support.n_sites, dtype=complex), M)


def projector_minus(J: Rect, M: int) -> LocalOp:
    """Projection onto the all-vacuum vector of ``J``'s local space."""
    dim = M**J.n_sites
    mat = np.zeros((dim, dim), dtype=complex)
    mat[0, 0] = 1.0
    return LocalOp(J, mat, M)


def projector_plus(J: Rect, M: int) -> LocalOp:
    """Complement of the all-vacuum projection on ``J``'s local space."""
    dim = M**J.n_sites
    mat = np.eye(dim, dtype=complex)
    mat[0, 0] = 0.0
    return LocalOp(J, mat, M)


def vacuum_projector(lat: LatticeSpec, M: int) -> LocalOp:
    return projector_minus(lat.full_rect(), M)


def diag_part(matrix: np.ndarray) -> np.ndarray:
    """Block-diagonal part w.r.t. (vacuum, complement) of the local space."""
    out = matrix.copy()
    out[0, 1:] = 0.0
    out[1:, 0] = 0.0
    return out


def offdiag_part(matrix: np.ndarray) -> np.ndarray:
    """Block-off-diagonal part w.r.t. (vacuum, complement)."""
    out = np.zeros_like(matrix)
    out[0, 1:] = matrix[0, 1:]
    out[1:, 0] = matrix[1:, 0]
    return out


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A @ B - B @ A


def adjoint_power(A: LocalOp | np.ndarray, B: LocalOp | np.ndarray, n: int) -> np.ndarray:
    """Iterated commutator: n = 1 gives [A, B]."""
    if n < 1:
        raise ValueError("adjoint power needs n >= 1")
    a = A.matrix if isinstance(A, LocalOp) else np.asarray(A)
    b = B.matrix if isinstance(B, LocalOp) else np.asarray(B)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    out = b
    for _ in range(n):
        out = commutator(a, out)
    return out


def dense_generator(x: np.ndarray) -> np.ndarray:
    """S = x e0^+ - e0 x^+ as a dense matrix."""
    s = np.zeros((x.size, x.size), dtype=complex)
    s[:, 0] = x
    s[0, :] -= x.conj()
    return s


def series_span(generators: list[np.ndarray], v1: LocalOp) -> np.ndarray:
    """An orthonormal basis Q, with Q[:, 0] = e0, of
    span(e0, V e0, x_r, V x_r) over the given generator vectors x_r, for
    V = ``v1``. The spanning vectors are normalized, projected off e0 and
    taken to their left singular vectors above 1e-12 of the largest."""
    V = v1.matrix
    e0 = np.eye(V.shape[0], dtype=complex)[:, 0]
    vecs = [V[:, 0], *(y for x in generators for y in (x, V @ x))]
    cols = np.column_stack([y / np.linalg.norm(y) for y in vecs if np.linalg.norm(y) > 0])
    cols[0] = 0.0
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return np.column_stack([e0, u[:, s > 1e-12 * s[0]]])


def no_skip_transform_map(interactions: dict, J: Rect, ops) -> dict:
    """The flow's map update without the a-priori skip: every target is
    embedded, rotated and handed to ``set_entry``, with the contributions
    summed in the package's order (supersets first)."""
    M = ops.v_diag_total.M
    new_map = dict(interactions)
    set_entry(new_map, J, ops.v_diag_total)
    inputs = {
        key: op.matrix for key, op in interactions.items() if key.contains(J) and key != J
    }
    for key, op in interactions.items():
        if not key.overlaps(J) or key.contains(J) or J.contains(key):
            continue
        target = minimal_rectangle(J, key)
        x = embed(op, target).matrix
        inputs[target] = inputs[target] + x if target in inputs else x
    for target, y in inputs.items():
        new_val = rotation_delta(LocalOp(target, y, M), J, ops.plane)
        old = interactions.get(target)
        if old is not None:
            new_val += old.matrix
        set_entry(new_map, target, LocalOp(target, new_val, M))
    return new_map


def g_set_scan(inner: Rect, target: Rect) -> set[Rect]:
    """``geometry.g_set`` by a scan of every sub-rectangle of the target:
    those that overlap ``inner`` and whose minimal rectangle with it is the
    target, the target itself left out."""
    found = set()
    for k in product(*(range(tk + 1) for tk in target.k)):
        q_ranges = [range(tq, tq + tk - kj + 1) for tq, tk, kj in zip(target.q, target.k, k)]
        for q in product(*q_ranges):
            cand = Rect(k, q)
            if cand == target or not cand.overlaps(inner):
                continue
            if minimal_rectangle(inner, cand) == target:
                found.add(cand)
    return found


class ReferenceExpander(_Expander):
    """The re-expansion one sub-branch at a time: ``rotate`` hands each
    sub-branch to ``apply_a``, which embeds its dense operator, rotates
    and norms it on its own through the kernels' single-operator calls.
    The bit reference of the package's stacked ``_Expander.rotate``, and
    the per-sub hook the oracle expanders override."""

    def rotate(self, step, subs):
        return [self.apply_a(step, sub) for sub in subs]

    def apply_a(self, label, sub):
        """The branch one level up, or None if it would be pruned."""
        plane = self.planes.get(label)
        if plane is None or not label.overlaps(sub.support):
            return None
        if plane.bound_factor * sub.norm <= PRUNE_THRESHOLD:
            return None
        x = embed(sub.op, minimal_rectangle(label, sub.support))
        c, nrm = rotation_border_norm(x, label, plane)
        if nrm <= PRUNE_THRESHOLD:
            return None
        border = Border(x.support, label, plane.p, c, x.M)
        return Branch((label,) + sub.labels, sub.leaf, sub.leaf_norm, border, nrm)


def bounding_rect(rects) -> Rect:
    """Smallest rectangle containing every rectangle of a nonempty family."""
    rects = list(rects)
    if not rects:
        raise ValueError("empty rectangle family")
    d = rects[0].d
    lo = [min(r.q[j] for r in rects) for j in range(d)]
    hi = [max(r.q[j] + r.k[j] for r in rects) for j in range(d)]
    return Rect(tuple(h - l for h, l in zip(hi, lo)), tuple(lo))


# per (d, N): the lattice, and step rectangles J at a corner of it (its
# legs interleaved with the others for d >= 2) and inside it (legs neither
# first nor last); the cases with J = the whole lattice are added below
LEG_CASES = {
    (1, 4): {"corner": Rect((1,), (1,)), "inside": Rect((1,), (2,))},
    (2, 2): {"corner": Rect((1, 0), (1, 1)), "inside": Rect((0, 0), (1, 2))},
    (2, 3): {"corner": Rect((1, 0), (1, 1)), "inside": Rect((1, 0), (2, 2))},
    (3, 2): {"corner": Rect((1, 0, 0), (1, 1, 1)), "inside": Rect((0, 1, 0), (1, 1, 2))},
}
LEG_PARAMS = [
    pytest.param(d, N, M, place, id=f"d{d}-N{N}-M{M}-{place}")
    for (d, N) in LEG_CASES
    for M in ((2, 3) if (d, N) in ((1, 4), (2, 2)) else (2,))
    for place in ("corner", "inside", "whole")
]


def leg_case(d, N, place):
    full = LatticeSpec(d, N).full_rect()
    return full, full if place == "whole" else LEG_CASES[(d, N)][place]


# four-site supports in d = 1, 2, 3 and a step rectangle J at each kind of
# place among their legs: first or interleaved with the others, inside,
# last (where ``permute_legs`` moves nothing); "whole" is J = the support
STACK_CASES = {
    1: (
        Rect((3,), (1,)),
        {"first": Rect((1,), (1,)), "inside": Rect((1,), (2,)), "last": Rect((1,), (3,))},
    ),
    2: (
        Rect((1, 1), (1, 1)),
        {
            "interleaved": Rect((1, 0), (1, 1)),
            "inside": Rect((0, 0), (1, 2)),
            "last": Rect((0, 1), (2, 1)),
        },
    ),
    3: (
        Rect((1, 1, 0), (1, 1, 1)),
        {
            "interleaved": Rect((1, 0, 0), (1, 1, 1)),
            "inside": Rect((0, 0, 0), (1, 2, 1)),
            "last": Rect((0, 1, 0), (2, 1, 1)),
        },
    ),
}
STACK_PARAMS = [
    pytest.param(d, M, place, k, id=f"d{d}-M{M}-{place}-k{k}")
    for d, (_, places) in STACK_CASES.items()
    for M in (2, 3)
    for place in (*places, "whole")
    for k in (1, 3)
]


def stack_case(d, place):
    support, places = STACK_CASES[d]
    return support, support if place == "whole" else places[place]


def random_hermitian_stack(rng, k, dim):
    """k random Hermitian dim x dim matrices along a leading axis."""
    raw = rng.standard_normal((k, dim, dim)) + 1j * rng.standard_normal((k, dim, dim))
    return (raw + raw.conj().swapaxes(-1, -2)) / 2


def frozen_rotation_border(op: LocalOp, J: Rect, x: np.ndarray):
    """The rotation kernel's border (P, C) as written before
    ``tensor.adjoint``, with conjugated copies read through strided
    transposes: the bit reference of ``schwinger._rotation_border``."""
    theta = float(np.linalg.norm(x))
    basis = np.zeros((x.size, 2), dtype=complex)
    basis[0, 0] = 1.0
    if theta > 0:
        basis[:, 1] = x / theta
    cos, sin = np.cos(theta), np.sin(theta)
    p = basis @ np.array([[cos - 1.0, -sin], [sin, cos - 1.0]])
    a = permute_legs(op.matrix, op.support, J, op.M)
    dim, dim_j = op.dim, x.size
    rest = dim // dim_j
    kh = (a.reshape(-1, dim_j) @ basis).reshape(dim, 2 * rest).conj().T
    m = (kh.reshape(-1, dim_j) @ basis).reshape(-1, 2)
    return p, kh + 0.5 * (m @ p.conj().T).reshape(2 * rest, dim)


def frozen_rotation_delta_norm(op: LocalOp, J: Rect, x: np.ndarray):
    """``rotation_delta`` and ``rotation_delta_norm`` as written before
    ``tensor.adjoint``: the bit reference of both."""
    p, c = frozen_rotation_border(op, J, x)
    w = (c.conj().T.reshape(-1, 2) @ p.conj().T).reshape(op.dim, op.dim)
    delta = permute_legs(w + w.conj().T, op.support, J, op.M, back=True)
    rest = c.shape[0] // 2
    b = np.zeros((rest, x.size, rest, 2), dtype=complex)
    b[np.arange(rest), :, np.arange(rest)] = p
    return delta, border_norm(b.reshape(op.dim, 2 * rest), c)


def dense_conjugation(op: LocalOp, J: Rect, u: np.ndarray) -> np.ndarray:
    """(u (x) I) A (u (x) I)^+ with u kron-embedded on op's support."""
    big = kron_embed(LocalOp(J, u, op.M), op.support).matrix
    return big @ op.matrix @ big.conj().T


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def composition_sum_vj(G, V, S, j):
    """Literal nested-commutator double sum; the independent series oracle."""
    if j == 1:
        return V.copy()
    acc = np.zeros_like(G)
    for p in range(2, j + 1):
        for comp in compositions(j, p):
            term = G
            for r in reversed(comp):
                term = commutator(S[r], term)
            acc += term / factorial(p)
    for p in range(1, j):
        for comp in compositions(j - 1, p):
            term = V
            for r in reversed(comp):
                term = commutator(S[r], term)
            acc += term / factorial(p)
    return acc


def dense_series_oracle(G, V, e0, t, j_max):
    """The step series with dense matrices throughout: every v_j as the
    literal composition sum, x_j from a dense resolvent, exp(S) from expm
    and the off-block norm from an SVD."""
    dim = G.shape[0]
    w, U = np.linalg.eigh(G[1:, 1:])
    resolvent = np.zeros((dim, dim), dtype=complex)
    resolvent[1:, 1:] = U @ np.diag(1.0 / (w - e0)) @ U.conj().T
    S, v_terms = {}, []
    for j in range(1, j_max + 1):
        vj = composition_sum_vj(G, V, S, j)
        v_terms.append(vj)
        x = np.zeros((dim, dim), dtype=complex)
        x[:, 0] = resolvent @ vj[:, 0]
        S[j] = x - x.conj().T
    s_total = sum(t**j * S[j] for j in S)
    local = G + t * V
    u = expm(s_total)
    conj = u @ local @ u.conj().T
    v_diag = sum(t ** (j - 1) * diag_part(vj) for j, vj in enumerate(v_terms, 1))
    return {
        "s_terms": [S[j] for j in sorted(S)],
        "v_terms": v_terms,
        "term_norms": [np.linalg.norm(vj, 2) for vj in v_terms],
        "v_diag_total": v_diag,
        "od_residual": np.linalg.norm(offdiag_part(conj), 2),
        "step_defect": np.linalg.norm(conj - (G + t * v_diag)),
    }


def dense_step_series(J, g, e0, v1, t, j_max=12):
    """The step series with dense n x n chain tables, a dense resolvent and
    expm: the reference path for whole flows. The flow reads the generator
    as its vector, column 0 of the dense S."""
    G = g.matrix
    dim = G.shape[0]
    gap = float(check_g_gap(G))
    w, U = np.linalg.eigh(G[1:, 1:])
    resolvent = np.zeros((dim, dim), dtype=complex)
    resolvent[1:, 1:] = U @ np.diag(1.0 / (w - e0)) @ U.conj().T
    v1_norm = op_norm(v1)
    s_terms, term_norms = [], []
    g_tab, v_tab = {}, {}

    def g_chain(p, m):
        if p == 1:
            return commutator(s_terms[m - 1], G)
        if (p, m) not in g_tab:
            g_tab[(p, m)] = sum(
                commutator(s_terms[r - 1], g_chain(p - 1, m - r)) for r in range(1, m - p + 2)
            )
        return g_tab[(p, m)]

    def v_chain(p, m):
        if p == 0:
            return v1.matrix if m == 0 else np.zeros((dim, dim), dtype=complex)
        if (p, m) not in v_tab:
            v_tab[(p, m)] = sum(
                commutator(s_terms[r - 1], v_chain(p - 1, m - r)) for r in range(1, m - p + 2)
            )
        return v_tab[(p, m)]

    v_diag = np.zeros((dim, dim), dtype=complex)
    s_total = np.zeros((dim, dim), dtype=complex)
    for j in range(1, j_max + 1):
        vj = v1.matrix.copy() if j == 1 else np.zeros((dim, dim), dtype=complex)
        for p in range(2, j + 1):
            vj += g_chain(p, j) / factorial(p)
        for p in range(1, j):
            vj += v_chain(p, j - 1) / factorial(p)
        term_norms.append(float(np.linalg.norm(vj, 2)))
        x = np.zeros((dim, dim), dtype=complex)
        x[:, 0] = resolvent @ vj[:, 0]
        s_terms.append(x - x.conj().T)
        v_diag += t ** (j - 1) * diag_part(vj)
        s_total += t**j * s_terms[-1]
    unitary = expm(s_total)
    local = G + t * v1.matrix
    conj = unitary @ local @ unitary.conj().T
    return SimpleNamespace(
        rect=J,
        e0=e0,
        g_gap=gap,
        v1_norm=v1_norm,
        s_norm=op_norm(s_total),
        tail_bound=_series_tail(t, v1_norm, j_max),
        term_norms=term_norms,
        generator=s_total[:, 0],
        plane=rotation_plane(s_total[:, 0]),
        v_diag_total=LocalOp(J, v_diag, v1.M),
        od_residual=float(np.linalg.norm(offdiag_part(conj), 2)),
        step_defect=float(np.linalg.norm(conj - (G + t * v_diag))),
    )


def dense_inequality_rows(lat, M, max_sites):
    """The operator-inequality suite's rows from embedded dense projectors.
    They are diagonal in the product basis, so the smallest eigenvalue is the
    smallest diagonal entry once the off-diagonal part is seen to vanish."""

    def min_eig(mat):
        assert not np.any(mat - np.diag(np.diag(mat)))
        return float(np.min(np.diag(mat).real))

    rows = []
    for k in _shape_vectors(lat, max_sites):
        J = Rect(k, (1,) * lat.d)
        if not J.fits(lat):
            continue
        site_sum = sum(
            kron_embed(projector_plus(Rect((0,) * lat.d, s), M), J).matrix for s in J.sites()
        )
        low = min_eig(site_sum - projector_plus(J, M).matrix)
        rows.append(
            {
                "check": "site-sum-dominates-complement",
                "shape": list(k),
                "min_eig": low,
                "pass": low >= -1e-12,
            }
        )
        for l in _shape_vectors(lat, max_sites):
            if l == k or any(lj > kj for lj, kj in zip(l, k)):
                continue
            placements = [
                Rect(l, q)
                for q in product(*(range(1, kj - lj + 2) for kj, lj in zip(k, l)))
                if Rect(l, q) != J
            ]
            if not placements:
                continue
            plus_sum = sum(kron_embed(projector_plus(c, M), J).matrix for c in placements)
            weight = (sum(l) + 1) ** lat.d
            low = min_eig(weight * site_sum - plus_sum)
            rows.append(
                {
                    "check": "weighted-site-sum-dominates-placements",
                    "shape": list(l),
                    "container": list(k),
                    "min_eig": low,
                    "pass": low >= -1e-12,
                }
            )
    return rows
