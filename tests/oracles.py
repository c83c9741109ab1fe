"""Dense reference implementations that the tests compare the package against.

Everything here is plain n x n algebra: identities joined on with
``np.kron``, projectors and generators as full matrices, commutators as two
matrix products, exponentials from scipy's ``expm``. None of it is used by
the package itself.
"""

from itertools import product
from math import factorial
from types import SimpleNamespace

import numpy as np
from scipy.linalg import expm

from gapflow.geometry import LatticeSpec, Rect
from gapflow.schwinger import _series_tail, check_g_gap, majorants
from gapflow.tensor import LocalOp, diag_part, op_norm
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
    return {
        "s_terms": [S[j] for j in sorted(S)],
        "v_terms": v_terms,
        "term_norms": [np.linalg.norm(vj, 2) for vj in v_terms],
        "v_diag_total": sum(t ** (j - 1) * diag_part(vj) for j, vj in enumerate(v_terms, 1)),
        "od_residual": np.linalg.norm(offdiag_part(conj), 2),
        "spectrum_drift": np.max(
            np.abs(np.linalg.eigvalsh(conj) - np.linalg.eigvalsh(local))
        ),
    }


def dense_step_series(J, g, e0, v1, t, j_max=12):
    """The step series with dense n x n chain tables, a dense resolvent and
    expm: the reference path for whole flows. The flow reads the generator
    as its vector, column 0 of the dense S."""
    G = g.matrix
    dim = G.shape[0]
    gap = check_g_gap(g, e0, J)
    w, U = np.linalg.eigh(G[1:, 1:])
    resolvent = np.zeros((dim, dim), dtype=complex)
    resolvent[1:, 1:] = U @ np.diag(1.0 / (w - e0)) @ U.conj().T
    v1_norm = op_norm(v1)
    maj = majorants(v1_norm, j_max) if v1_norm > 0 else None
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
    tail_bound, certified = (
        _series_tail(term_norms, t, maj, j_max) if maj is not None else (0.0, True)
    )
    unitary = expm(s_total)
    local = G + t * v1.matrix
    conj = unitary @ local @ unitary.conj().T
    return SimpleNamespace(
        e0=e0,
        gap=gap,
        v1_norm=v1_norm,
        s_norm=op_norm(s_total),
        tail_bound=tail_bound,
        tail_certified=certified,
        term_norms=term_norms,
        majorant=maj,
        generator=s_total[:, 0],
        v1=v1,
        v_diag_total=LocalOp(J, v_diag, v1.M),
        od_residual=float(np.linalg.norm(offdiag_part(conj), 2)),
        spectrum_drift=float(
            np.max(np.abs(np.linalg.eigvalsh(conj) - np.linalg.eigvalsh(local)))
        ),
    )


def dense_inequality_rows(lat, M, max_sites):
    """The operator-inequality suite's rows from embedded dense projectors.
    They are diagonal in the product basis, so the smallest eigenvalue is the
    smallest diagonal entry once the off-diagonal part is seen to vanish."""

    def min_eig(mat):
        assert not np.any(mat - np.diag(np.diag(mat)))
        return float(np.min(np.diag(mat).real))

    rows = []
    for k in _shape_vectors(lat.d, max_sites):
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
        for l in _shape_vectors(lat.d, max_sites):
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
