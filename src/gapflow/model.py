"""Model specification and assembly of the lattice Hamiltonian.

A model is a gapped on-site term (vacuum eigenvalue 0, rest of the spectrum
at or above 1) plus bounded short-range potentials with unit norm cap,
scaled by a coupling t.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .geometry import LatticeSpec, Rect, all_rects
from .tensor import LocalOp, embedded_sum, is_hermitian


def default_onsite(M: int) -> np.ndarray:
    """diag(0, 1, ..., 1): the minimal on-site operator with unit gap."""
    h = np.eye(M, dtype=complex)
    h[0, 0] = 0.0
    return h


def _validate_onsite(h: np.ndarray, M: int) -> np.ndarray:
    """A copy of the checked on-site matrix ``h`` whose vacuum row and column
    are exactly zero: every G of the flow must fix the vacuum exactly."""
    h = np.array(h, dtype=complex)
    if h.shape != (M, M):
        raise ValueError(f"onsite matrix must be {M}x{M}, got {h.shape}")
    # the test every later norm and spectrum of the flow applies
    if not is_hermitian(h):
        raise ValueError("onsite matrix must be Hermitian")
    vac = h[:, 0]
    if np.linalg.norm(vac) > 1e-10:
        raise ValueError(
            "onsite matrix must annihilate the vacuum basis vector (index 0); "
            "rotate your basis so the ground state sits at index 0"
        )
    rest = np.linalg.eigvalsh(h[1:, 1:])
    if rest.size and rest[0] < 1.0 - 1e-10:
        raise ValueError(f"onsite gap < 1: spectrum on the vacuum complement starts at {rest[0]}")
    h[0] = h[:, 0] = 0.0
    return h


@dataclass
class ModelSpec:
    """Validated model: lattice, on-site dimension M (vacuum at basis index
    0), on-site term, potentials, coupling."""

    lat: LatticeSpec
    M: int
    onsite_h: np.ndarray
    potentials: list[tuple[Rect, np.ndarray]]
    t: float
    rng_seed: int = 0
    k_bar: int = 1

    def __post_init__(self) -> None:
        if self.M < 2:
            raise ValueError(f"on-site dimension must be >= 2, got {self.M}")
        self.onsite_h = _validate_onsite(self.onsite_h, self.M)
        if self.t < 0:
            warnings.warn("negative coupling t accepted; the reference regime is t >= 0")
        checked = []
        for J, mat in self.potentials:
            if not J.fits(self.lat):
                raise ValueError(f"potential support {J} does not fit the lattice")
            if J.circumference < 1 or J.circumference > self.k_bar:
                raise ValueError(
                    f"potential support {J} has circumference {J.circumference}; "
                    f"allowed range is 1..{self.k_bar}"
                )
            mat = np.asarray(mat, dtype=complex)
            dim = self.M**J.n_sites
            if mat.shape != (dim, dim):
                raise ValueError(f"potential on {J} must be {dim}x{dim}, got {mat.shape}")
            # the test every later norm and spectrum of the flow applies
            if not is_hermitian(mat):
                raise ValueError(f"potential on {J} must be Hermitian")
            nrm = np.linalg.norm(mat, 2)
            if nrm > 1.0 + 1e-12:
                raise ValueError(f"potential on {J} has operator norm {nrm:.6g} > 1")
            checked.append((J, mat))
        seen = set()
        for J, _ in checked:
            if J in seen:
                raise ValueError(f"duplicate potential support {J}")
            seen.add(J)
        self.potentials = checked

    def onsite_op(self, site_coord: tuple[int, ...]) -> LocalOp:
        point = Rect((0,) * self.lat.d, site_coord)
        return LocalOp(point, self.onsite_h, self.M)


def coupled(entries: Iterable[LocalOp], t: float) -> list[tuple[float, LocalOp]]:
    """(coefficient, entry) pairs for ``embedded_sum``: 1 for on-site
    entries (supported on a point), t for every other entry."""
    return [(1.0 if op.support.circumference == 0 else t, op) for op in entries]


def build_hamiltonian(spec: ModelSpec) -> LocalOp:
    """K(t) = sum_i H_i + t * sum_J V_J on the full lattice."""
    full = spec.lat.full_rect()
    return embedded_sum(coupled(initial_interactions(spec).values(), spec.t), full, spec.M)


def initial_interactions(spec: ModelSpec) -> dict[Rect, LocalOp]:
    """Starting interaction map: on-site terms on points, given potentials on
    their supports, nothing (= zero) for circumference >= 2."""
    entries: dict[Rect, LocalOp] = {}
    for coord in spec.lat.sites():
        op = spec.onsite_op(coord)
        entries[op.support] = op
    for J, mat in spec.potentials:
        entries[J] = LocalOp(J, mat, spec.M)
    return entries


def random_model(
    lat: LatticeSpec, M: int, t: float, seed: int, onsite: np.ndarray | None = None
) -> ModelSpec:
    """Seeded model with Hermitian nearest-neighbor potentials of norm exactly 1."""
    rng = np.random.default_rng(seed)
    h = default_onsite(M) if onsite is None else onsite
    potentials = []
    for J in all_rects(lat, min_circ=1):
        if J.circumference != 1:
            continue
        dim = M**J.n_sites
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        herm = (raw + raw.conj().T) / 2.0
        herm /= np.linalg.norm(herm, 2)
        potentials.append((J, herm))
    return ModelSpec(lat, M, h, potentials, t, rng_seed=seed)
