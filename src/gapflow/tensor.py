"""Tensor-product bookkeeping for operators supported on lattice rectangles.

Local operators are dense complex matrices on the tensor factor of their
support rectangle, with sites ordered lexicographically by coordinate. The
all-vacuum basis vector of any support is index 0 (vacuum = on-site basis
state 0), so the local vacuum projector is the elementary matrix E_00.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import LatticeSpec, Rect

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


def identity_op(support: Rect, M: int) -> LocalOp:
    return LocalOp(support, np.eye(M**support.n_sites, dtype=complex), M)


def _embed_matrix(
    matrix: np.ndarray, src_sites: list, dst_sites: list, M: int
) -> np.ndarray:
    """Tensor ``matrix`` with identities and reorder to dst site order."""
    n_src, n_dst = len(src_sites), len(dst_sites)
    extra = [s for s in dst_sites if s not in set(src_sites)]
    big = np.kron(matrix, np.eye(M ** len(extra), dtype=complex))
    # big is in site order src_sites + extra; permute axes to dst order
    concat = src_sites + extra
    pos = {site: i for i, site in enumerate(concat)}
    perm = [pos[site] for site in dst_sites]
    tens = big.reshape((M,) * (2 * n_dst))
    tens = np.transpose(tens, perm + [n_dst + p for p in perm])
    return np.ascontiguousarray(tens.reshape(M**n_dst, M**n_dst))


def embed(op: LocalOp, into: Rect) -> LocalOp:
    """Extend ``op`` by identity onto a containing rectangle, in canonical order."""
    if not into.contains(op.support):
        raise ValueError(f"support {op.support} not contained in {into}")
    if into == op.support:
        return op
    mat = _embed_matrix(op.matrix, op.support.sites(), into.sites(), op.M)
    return LocalOp(into, mat, op.M)


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


def offdiag_norm(matrix: np.ndarray) -> float:
    """Operator norm of the off-block part c e0^+ + e0 r (c, r^+ orthogonal
    to e0). Its Gram matrix is ||c||^2 E_00 + r^+ r, so the norm is exactly
    max(||c||, ||r||)."""
    return float(max(np.linalg.norm(matrix[1:, 0]), np.linalg.norm(matrix[0, 1:])))


def op_norm(op: LocalOp | np.ndarray) -> float:
    """Largest singular value."""
    mat = op.matrix if isinstance(op, LocalOp) else np.asarray(op)
    return float(np.linalg.norm(mat, 2))


def hermitian_spectrum(op: LocalOp | np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian operator, ascending."""
    mat = op.matrix if isinstance(op, LocalOp) else np.asarray(op, dtype=complex)
    scale = max(np.linalg.norm(mat, 2), 1e-300)
    if np.linalg.norm(mat - mat.conj().T, 2) > HERMITICITY_RTOL * scale:
        raise ValueError("operator is not Hermitian within tolerance")
    return np.linalg.eigvalsh(mat)
