"""Tensor-product bookkeeping for operators supported on lattice rectangles.

Local operators are dense complex matrices on the tensor factor of their
support rectangle, with sites ordered lexicographically by coordinate. The
all-vacuum basis vector of any support is index 0 (vacuum = on-site basis
state 0), so the local vacuum projector is the elementary matrix E_00.

An operator on n sites is also read as its (M,)*2n tensor: n row legs, then
n column legs, one per site. Embedding and conjugation work on those legs,
so no Kronecker product or embedded n x n unitary is ever formed. A
``LocalOp``'s matrix is never mutated, so it caches its own norms.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache
from string import ascii_letters

import numpy as np

from .geometry import Rect

HERMITICITY_RTOL = 1e-10


@dataclass(frozen=True)
class SiteSpace:
    """On-site Hilbert space of dimension M with vacuum at basis index 0."""

    M: int

    def __post_init__(self) -> None:
        if self.M < 2:
            raise ValueError(f"on-site dimension must be >= 2, got {self.M}")


@dataclass
class LocalOp:
    """Operator on the tensor factor of ``support`` (dense, site-lex basis)."""

    support: Rect
    matrix: np.ndarray
    M: int

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=complex)
        dim = self.M ** self.support.n_sites
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"M^sites = {self.M}^{self.support.n_sites} = {dim}"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def norm(self) -> float:
        """Operator norm, ``hermitian_norm`` of the operator."""
        return hermitian_norm(self)

    @cached_property
    def fro_norm(self) -> float:
        """Frobenius norm of the matrix."""
        return float(np.linalg.norm(self.matrix))


@lru_cache(maxsize=4096)
def _embed_subscripts(support: Rect, into: Rect) -> str:
    """einsum subscripts taking the leg tensor of an operator on ``into`` to
    a view ordered (other sites, ``support``'s row legs, its column legs),
    where each other site's row and column leg are one diagonal index."""
    sites = into.sites()
    pos = {site: i for i, site in enumerate(sites)}
    own = [pos[site] for site in support.sites()]
    rest = sorted(set(range(len(sites))) - set(own))
    rows = ascii_letters[: len(sites)]
    cols = list(rows)
    for i in own:
        cols[i] = ascii_letters[len(sites) + i]
    out = [rows[i] for i in rest] + [rows[i] for i in own] + [cols[i] for i in own]
    return f"{rows}{''.join(cols)}->{''.join(out)}"


def add_embedded(total: np.ndarray, op: LocalOp, into: Rect, coeff: complex = 1.0) -> None:
    """total += coeff (op (x) I), in place, for the C-contiguous matrix
    ``total`` of an operator on ``into`` (canonical site order).

    The sum goes through a writable einsum diagonal view of ``total``'s leg
    tensor, so it costs O(n_op n) for the dimensions n_op of ``op`` and n of
    ``total``, and forms no temporary of ``total``'s size.
    """
    if not into.contains(op.support):
        raise ValueError(f"support {op.support} not contained in {into}")
    if not total.flags.c_contiguous:
        raise ValueError("the destination must be C-contiguous to add through a view")
    legs = total.reshape((op.M,) * (2 * into.n_sites))
    view = np.einsum(_embed_subscripts(op.support, into), legs)
    view += coeff * op.matrix.reshape((op.M,) * (2 * op.support.n_sites))


def embedded_sum(terms: Iterable[tuple[complex, LocalOp]], into: Rect, M: int) -> LocalOp:
    """sum_k c_k (A_k (x) I) on ``into`` over the pairs (c_k, A_k), added in order."""
    dim = M**into.n_sites
    total = np.zeros((dim, dim), dtype=complex)
    for coeff, op in terms:
        add_embedded(total, op, into, coeff)
    return LocalOp(into, total, M)


def embed(op: LocalOp, into: Rect) -> LocalOp:
    """Extend ``op`` by identity onto a containing rectangle, in canonical order."""
    return op if into == op.support else embedded_sum([(1.0, op)], into, op.M)


_Transpose = tuple[tuple[int, ...], tuple[int, ...]]


@lru_cache(maxsize=4096)
def _leg_order(support: Rect, J: Rect, M: int) -> tuple[_Transpose, _Transpose]:
    """Tensor shape and axis order that move J's legs after the other legs
    of ``support``, on the row side and on the column side, and the pair
    that moves them back. Runs of legs that stay adjacent and in order
    share one axis, so the transpose moves as few axes as possible."""
    sites = support.sites()
    inner = set(J.sites())
    perm = [i for i, s in enumerate(sites) if s not in inner]
    perm += [i for i, s in enumerate(sites) if s in inner]
    runs = [[perm[0]]]
    for i in perm[1:]:
        if i == runs[-1][-1] + 1:
            runs[-1].append(i)
        else:
            runs.append([i])
    starts = sorted(run[0] for run in runs)
    sizes = {run[0]: M ** len(run) for run in runs}
    order = [starts.index(run[0]) for run in runs]
    shape = tuple(sizes[s] for s in starts) * 2
    axes = tuple(order + [len(runs) + i for i in order])
    back = tuple(int(a) for a in np.argsort(axes))
    return (shape, axes), (tuple(shape[a] for a in axes), back)


def permute_legs(
    matrix: np.ndarray, support: Rect, J: Rect, M: int, back: bool = False
) -> np.ndarray:
    """``matrix`` on ``support`` with J's legs moved last on both sides, so
    that J's factor is the fastest index of each; ``back=True`` undoes it.
    Returns ``matrix`` itself when J's legs already come last."""
    forward, backward = _leg_order(support, J, M)
    shape, axes = backward if back else forward
    if len(axes) == 2:
        return matrix
    return matrix.reshape(shape).transpose(axes).reshape(matrix.shape)


def conjugate_on_legs(op: LocalOp, J: Rect, u: np.ndarray) -> np.ndarray:
    """(u (x) I) A (u (x) I)^+ for A = ``op`` and a dense ``u`` on J's legs.

    J's legs are contracted with u on each side, at O(n^2 n_J) for the
    support dimension n; u is never embedded.
    """
    if not op.support.contains(J):
        raise ValueError(f"rectangle {J} not contained in {op.support}")
    dim, dim_j = op.dim, u.shape[0]
    a = permute_legs(op.matrix, op.support, J, op.M)
    right = (a.reshape(-1, dim_j) @ u.conj().T).reshape(dim // dim_j, dim_j, dim)
    both = (u @ right).reshape(dim, dim)
    return permute_legs(both, op.support, J, op.M, back=True)


def diag_part(matrix: np.ndarray) -> np.ndarray:
    """Block-diagonal part w.r.t. (vacuum, complement) of the local space."""
    out = matrix.copy()
    out[0, 1:] = 0.0
    out[1:, 0] = 0.0
    return out


def offdiag_norm(matrix: np.ndarray) -> float:
    """Operator norm of the off-block part c e0^+ + e0 r (c, r^+ orthogonal
    to e0). Its Gram matrix is ||c||^2 E_00 + r^+ r, so the norm is exactly
    max(||c||, ||r||)."""
    return float(max(np.linalg.norm(matrix[1:, 0]), np.linalg.norm(matrix[0, 1:])))


def op_norm(op: LocalOp | np.ndarray) -> float:
    """Largest singular value."""
    mat = op.matrix if isinstance(op, LocalOp) else np.asarray(op)
    return float(np.linalg.norm(mat, 2))


def is_hermitian(mat: np.ndarray) -> bool:
    """||A - A^+||_F <= rtol ||A||_F / sqrt(n). The two sides bound the
    2-norms from above and below, so this refuses every matrix the 2-norm
    test ||A - A^+|| > rtol max(||A||, 1) refuses."""
    scale = max(np.linalg.norm(mat) / np.sqrt(mat.shape[0]), 1e-300)
    return bool(np.linalg.norm(mat - mat.conj().T) <= HERMITICITY_RTOL * scale)


def hermitian_spectrum(op: LocalOp | np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian operator, ascending; refuses an
    operator that fails ``is_hermitian``."""
    mat = op.matrix if isinstance(op, LocalOp) else np.asarray(op, dtype=complex)
    if not is_hermitian(mat):
        raise ValueError("operator is not Hermitian within tolerance")
    return np.linalg.eigvalsh(mat)


def hermitian_norm(op: LocalOp | np.ndarray) -> float:
    """Operator norm of a Hermitian operator, its largest |eigenvalue|, from
    ``hermitian_spectrum`` (same Hermiticity refusal); cheaper than the SVD
    of ``op_norm``."""
    w = hermitian_spectrum(op)
    return float(max(-w[0], w[-1]))


def border_norm(b: np.ndarray, c: np.ndarray) -> float:
    """Operator norm of the Hermitian B C + C^+ B^+ for B of shape (n, k)
    and C of shape (k, n), an operator of rank at most 2k.

    With the thin QR [B, C^+] = Q [R_B, R_C] the operator is
    Q (R_B R_C^+ + R_C R_B^+) Q^+, so its norm is the largest |eigenvalue|
    of that Hermitian matrix of order min(n, 2k); for 2k < n the operator
    itself is never formed. No Hermiticity test is needed: the operator is
    Hermitian by its form.
    """
    r = np.linalg.qr(np.hstack([b, c.conj().T]), mode="r")
    k = b.shape[1]
    half = r[:, :k] @ r[:, k:].conj().T
    w = np.linalg.eigvalsh(half + half.conj().T)
    return float(max(-w[0], w[-1]))
