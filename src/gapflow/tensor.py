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


@dataclass
class LocalOp:
    """Operator on the tensor factor of ``support`` (dense, site-lex basis).

    ``matrix`` may also hold a stack of operators on one support along
    leading axes: the leg kernels (``embed``, ``add_embedded``,
    ``permute_legs`` and the rotation kernels) act on each one alike. The
    cached norms are those of a single operator.
    """

    support: Rect
    matrix: np.ndarray
    M: int

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=complex)
        dim = self.M ** self.support.n_sites
        if self.matrix.ndim < 2 or self.matrix.shape[-2:] != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"M^sites = {self.M}^{self.support.n_sites} = {dim}"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

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
    """einsum subscripts taking the leg tensor of an operator on ``into``,
    after any leading stack axes, to a view ordered (other sites, stack
    axes, ``support``'s row legs, its column legs), where each other site's
    row and column leg are one diagonal index."""
    sites = into.sites()
    pos = {site: i for i, site in enumerate(sites)}
    own = [pos[site] for site in support.sites()]
    rest = sorted(set(range(len(sites))) - set(own))
    rows = ascii_letters[: len(sites)]
    cols = list(rows)
    for i in own:
        cols[i] = ascii_letters[len(sites) + i]
    out = [rows[i] for i in rest] + ["..."] + [rows[i] for i in own] + [cols[i] for i in own]
    return f"...{rows}{''.join(cols)}->{''.join(out)}"


def add_embedded(total: np.ndarray, op: LocalOp, into: Rect, coeff: complex = 1.0) -> None:
    """total += coeff (op (x) I), in place, for the C-contiguous matrix
    ``total`` of an operator on ``into`` (canonical site order); for a
    stack, slice by slice, with ``total`` and ``op.matrix`` on the same
    leading axes.

    The sum goes through a writable einsum diagonal view of ``total``'s leg
    tensor, so it costs O(n_op n) for the dimensions n_op of ``op`` and n of
    ``total``, and forms no temporary of ``total``'s size.
    """
    if not into.contains(op.support):
        raise ValueError(f"support {op.support} not contained in {into}")
    if not total.flags.c_contiguous:
        raise ValueError("the destination must be C-contiguous to add through a view")
    lead = total.shape[:-2]
    legs = total.reshape(lead + (op.M,) * (2 * into.n_sites))
    view = np.einsum(_embed_subscripts(op.support, into), legs)
    view += coeff * op.matrix.reshape(lead + (op.M,) * (2 * op.support.n_sites))


def embedded_sum(terms: Iterable[tuple[complex, LocalOp]], into: Rect, M: int) -> LocalOp:
    """sum_k c_k (A_k (x) I) on ``into`` over the pairs (c_k, A_k), added in order."""
    dim = M**into.n_sites
    total = np.zeros((dim, dim), dtype=complex)
    for coeff, op in terms:
        add_embedded(total, op, into, coeff)
    return LocalOp(into, total, M)


def embed(op: LocalOp, into: Rect) -> LocalOp:
    """Extend ``op`` (each operator of a stack) by identity onto a
    containing rectangle, in canonical order."""
    if into == op.support:
        return op
    dim = op.M**into.n_sites
    total = np.zeros(op.matrix.shape[:-2] + (dim, dim), dtype=complex)
    add_embedded(total, op, into)
    return LocalOp(into, total, op.M)


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
    """``matrix`` on ``support`` (each matrix of a stack along leading
    axes) with J's legs moved last on both sides, so that J's factor is the
    fastest index of each; ``back=True`` undoes it. Returns ``matrix``
    itself when J's legs already come last."""
    forward, backward = _leg_order(support, J, M)
    shape, axes = backward if back else forward
    if len(axes) == 2:
        return matrix
    lead = matrix.shape[:-2]
    stack = tuple(range(len(lead)))
    moved = tuple(len(lead) + a for a in axes)
    return matrix.reshape(lead + shape).transpose(stack + moved).reshape(matrix.shape)


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
    del a  # at most two n x n temporaries live at once
    both = (u @ right).reshape(dim, dim)
    del right
    return permute_legs(both, op.support, J, op.M, back=True)


def offdiag_norm(matrix: np.ndarray) -> float:
    """Operator norm of the off-block part c e0^+ + e0 r (c, r^+ orthogonal
    to e0). Its Gram matrix is ||c||^2 E_00 + r^+ r, so the norm is exactly
    max(||c||, ||r||)."""
    return float(max(np.linalg.norm(matrix[1:, 0]), np.linalg.norm(matrix[0, 1:])))


def adjoint(x: np.ndarray) -> np.ndarray:
    """A fresh C-contiguous x^+ (of each matrix along leading stack axes):
    one transposing copy, conjugated in place, instead of a conjugated copy
    read back through a strided transpose."""
    out = x.swapaxes(-1, -2).copy()
    np.conjugate(out, out=out)
    return out


def is_hermitian(mat: np.ndarray) -> bool:
    """||A - A^+||_F <= rtol ||A||_F / sqrt(n). The two sides bound the
    2-norms from above and below, so this refuses every matrix the 2-norm
    test ||A - A^+|| > rtol max(||A||, 1) refuses."""
    scale = max(np.linalg.norm(mat) / np.sqrt(mat.shape[0]), 1e-300)
    skew = adjoint(mat)
    np.subtract(mat, skew, out=skew)
    return bool(np.linalg.norm(skew) <= HERMITICITY_RTOL * scale)


def require_hermitian(mat: np.ndarray) -> None:
    """Refuse a matrix that fails ``is_hermitian`` with a ValueError."""
    if not is_hermitian(mat):
        raise ValueError("operator is not Hermitian within tolerance")


def hermitian_spectrum(op: LocalOp | np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian operator, ascending; refuses an
    operator that fails ``is_hermitian`` (``require_hermitian``)."""
    mat = op.matrix if isinstance(op, LocalOp) else np.asarray(op, dtype=complex)
    require_hermitian(mat)
    return np.linalg.eigvalsh(mat)


def hermitian_norm(op: LocalOp | np.ndarray) -> float:
    """Operator norm of a Hermitian operator, its largest |eigenvalue|, from
    ``hermitian_spectrum`` (same Hermiticity refusal); cheaper than an SVD."""
    w = hermitian_spectrum(op)
    return float(max(-w[0], w[-1]))


def border_norm(b: np.ndarray, c: np.ndarray) -> float | np.ndarray:
    """Operator norm of the Hermitian B C + C^+ B^+ for B of shape (n, k)
    and C of shape (k, n), an operator of rank at most 2k; for a stack of
    C along leading axes and one shared B, the array of norms.

    For 2k < n, with the thin QR [B, C^+] = Q [R_B, R_C] the operator is
    Q (R_B R_C^+ + R_C R_B^+) Q^+, so its norm is the largest |eigenvalue|
    of that Hermitian matrix of order 2k, and the operator itself is never
    formed. For 2k >= n the rank bound is no smaller than n, and the QR
    would only add its own cost to an n x n eigensolve, so the operator is
    formed and solved directly. No Hermiticity test is needed: the operator
    is Hermitian by its form.
    """
    n, k = b.shape
    if 2 * k >= n:
        half = b @ c
    else:
        bs = np.broadcast_to(b, c.shape[:-2] + (n, k))
        r = np.linalg.qr(np.concatenate([bs, adjoint(c)], axis=-1), mode="r")
        half = r[..., :k] @ adjoint(r[..., k:])
    w = np.linalg.eigvalsh(half + adjoint(half))
    norms = np.maximum(-w[..., 0], w[..., -1])
    return float(norms) if norms.ndim == 0 else norms
