"""End-of-run verification: spectral claims, operator inequalities, norm audits.

``verify_main_theorem`` reads the model, ``j_max`` and the tolerances from
the state; the norm audit it reports reads each stored entry's cached
``LocalOp.norm``.
"""

from __future__ import annotations

import hashlib
import json
from itertools import product
from math import prod

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .flow import (
    FlowState, assemble_hamiltonian, failed_claims, norm_decay_audit, regime_of, verdict
)
from .geometry import LatticeSpec, Rect
from .model import ModelSpec, build_hamiltonian
from .schwinger import GAP_FLOOR
from .tensor import hermitian_spectrum, require_hermitian


def _rounded(mat: np.ndarray) -> np.ndarray:
    # to 14 decimals; adding 0.0 turns a -0.0 (a tiny negative rounded) into 0.0
    return np.round(mat, 14) + 0.0


def model_fingerprint(spec: ModelSpec) -> str:
    """Stable hash of the model content (matrices included, coupling included)."""
    h = hashlib.sha256()
    payload = {
        "d": spec.lat.d,
        "N": spec.lat.N,
        "M": spec.M,
        "t": repr(spec.t),
        "seed": spec.rng_seed,
        "onsite": _rounded(spec.onsite_h).tolist(),
    }
    h.update(json.dumps(payload, sort_keys=True, default=str).encode())
    for J, mat in sorted(spec.potentials, key=lambda p: (p[0].k, p[0].q)):
        h.update(str((J.k, J.q)).encode())
        h.update(_rounded(mat).tobytes())
    return h.hexdigest()[:16]


def _step_dict(index: int, rec, full: Rect) -> dict:
    return {
        "index": index,
        "k": list(rec.rect.k),
        "q": list(rec.rect.q),
        "circumference": rec.rect.circumference,
        "skipped": rec.skipped,
        "g_gap": rec.g_gap,
        "e0": rec.e0,
        "s_norm": rec.s_norm,
        "v1_norm": rec.v1_norm,
        "tail_bound": rec.tail_bound,
        "tail_certified": rec.tail_certified,
        "od_residual": rec.od_residual,
        "step_defect": rec.step_defect,
        "residual": rec.residual,
        "regime": regime_of(rec.rect, full),
    }


def verification_bytes(spec: ModelSpec) -> int:
    """The bytes of the matrices ``verify_main_theorem`` forms: K, Kt and
    Kt's eigenvectors, three dense n x n complex matrices, 48 n^2 bytes for
    n = M^sites."""
    return 48 * (spec.M**spec.lat.n_sites) ** 2


def verify_main_theorem(state: FlowState) -> dict:
    """The run's report, judged by ``flow.verdict``: check the end-of-flow
    claims (unique gapped ground state, block diagonality with respect to
    the all-vacuum projection, spectrum preservation, the vacuum as ground
    state of the transformed operator: its energy ``Kt[0,0]`` against the
    lowest eigenvalue of the original one), then add the flow's own failed
    claims (``flow.failed_claims``). K and Kt are both refused unless
    Hermitian (``tensor.require_hermitian``): ``eigh`` reads one triangle."""
    spec = state.spec
    tol = state.tolerances.spectral
    failed: list[str] = []
    K = build_hamiltonian(spec)
    Kt = assemble_hamiltonian(state)
    w = hermitian_spectrum(K)
    require_hermitian(Kt.matrix)
    wt, vecs = np.linalg.eigh(Kt.matrix)

    delta = float(wt[1] - wt[0])
    delta_original = float(w[1] - w[0])
    spectra_diff = float(np.max(np.abs(w - wt)))
    pvac_offblock = float(np.linalg.norm(Kt.matrix[0, 1:]))
    ground_overlap = float(np.abs(vecs[0, 0]))
    vacuum_energy = float(Kt.matrix[0, 0].real)

    if delta < GAP_FLOOR - state.tolerances.gap_slack:
        failed.append(f"gap: transformed gap {delta:.9g} below 1/2")
    if pvac_offblock > tol:
        failed.append(f"block-diagonal: vacuum off-block norm {pvac_offblock:.3g} above {tol:.1g}")
    if spectra_diff > tol:
        failed.append(f"spectrum: transformed spectrum deviates by {spectra_diff:.3g}")
    if abs(delta - delta_original) > tol:
        failed.append(
            f"gap-invariance: gap from original and transformed spectra differ by "
            f"{abs(delta - delta_original):.3g}"
        )
    if ground_overlap < 1.0 - tol:
        failed.append(f"ground-vector: vacuum overlap {ground_overlap:.12g} below 1 - {tol:.1g}")
    if abs(vacuum_energy - w[0]) > tol:
        failed.append(
            f"vacuum-energy: transformed vacuum energy differs from the original "
            f"ground energy by {abs(vacuum_energy - w[0]):.3g}"
        )
    failed += failed_claims(state)

    return {
        "schema": "gapflow-report/3",
        "fingerprint": model_fingerprint(spec),
        "model": dict(d=spec.lat.d, N=spec.lat.N, M=spec.M, t=spec.t, seed=spec.rng_seed),
        "j_max": state.j_max,
        "status": verdict(failed),
        "failed_clauses": failed,
        "steps": [_step_dict(i, r, spec.lat.full_rect()) for i, r in enumerate(state.history)],
        "final": {
            "ground_energy": float(wt[0]),
            "delta": delta,
            "delta_from_original": delta_original,
            "spectra_max_diff": spectra_diff,
            "pvac_offblock": pvac_offblock,
            "ground_overlap": ground_overlap,
            "vacuum_energy": vacuum_energy,
            "min_step_gap": min(
                (r.g_gap for r in state.history), default=float("nan")
            ),
            "max_consistency_residual": max(
                (r.residual for r in state.history if r.residual is not None),
                default=None,
            ),
        },
        "norm_audit": norm_decay_audit(state),
    }


def _shape_vectors(lat: LatticeSpec, max_sites: int):
    """All side-length vectors whose rectangle fits in the lattice and has at
    most max_sites sites; each k_j is at most N - 1, so the enumeration is
    bounded by the lattice, not by max_sites."""
    out = []
    for k in product(range(min(max_sites, lat.N)), repeat=lat.d):
        sites = 1
        for kj in k:
            sites *= kj + 1
        if sites <= max_sites:
            out.append(k)
    return sorted(out)


def inequality_suite(lat: LatticeSpec, M: int, max_sites: int = 10) -> list[dict]:
    """Minimum-eigenvalue checks for the two projection inequalities.

    First: on any rectangle, the sum of single-site excitation projectors
    dominates the complement of the local vacuum. Second: summing local
    excitation projectors of one shape over all strict placements inside a
    container costs at most (l+1)^d per-site excitation counters. Both are
    translation covariant, so one representative per shape suffices.

    Every operator here is diagonal in the product basis. A container's
    excitation grid flags whether a site is excited in a basis vector, with
    one axis per lattice direction (lexicographic site order, the basis
    order) and one over basis vectors: the site sum sums the site axes, and
    a placement's projector is the ``any`` of its window of the grid.
    """
    shapes = _shape_vectors(lat, max_sites)
    site_axes = tuple(range(lat.d))
    window_axes = tuple(range(-lat.d, 0))
    results = []
    for k in shapes:
        sides = [kj + 1 for kj in k]
        grid = (np.indices((M,) * prod(sides)) != 0).reshape(*sides, -1)
        site_sum = grid.sum(site_axes)
        min_eig = float(np.min(site_sum - grid.any(site_axes)))
        results.append(
            {
                "check": "site-sum-dominates-complement",
                "shape": list(k),
                "min_eig": min_eig,
                "pass": bool(min_eig >= 0),
            }
        )
        for l in shapes:
            if all(lj <= kj for lj, kj in zip(l, k)) and l != k:
                windows = sliding_window_view(grid, [lj + 1 for lj in l], axis=site_axes)
                plus_sum = windows.any(window_axes).sum(site_axes)
                weight = (sum(l) + 1) ** lat.d
                min_eig = float(np.min(weight * site_sum - plus_sum))
                results.append(
                    {
                        "check": "weighted-site-sum-dominates-placements",
                        "shape": list(l),
                        "container": list(k),
                        "min_eig": min_eig,
                        "pass": bool(min_eig >= 0),
                    }
                )
    return results
