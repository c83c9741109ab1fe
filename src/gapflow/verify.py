"""End-of-run verification: spectral claims, operator inequalities, norm audits.

``verify_main_theorem`` reads the model from ``state.spec``; the norm audit
it reports reads each stored entry's cached ``LocalOp.norm``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .flow import FlowState, assemble_hamiltonian, norm_decay_audit
from .geometry import LatticeSpec, Rect
from .model import ModelSpec, build_hamiltonian
from .schwinger import GAP_FLOOR
from .tensor import hermitian_spectrum


@dataclass
class RunReport:
    """Machine-readable record of one verified flow."""

    fingerprint: str
    d: int
    N: int
    M: int
    t: float
    seed: int | None
    j_max: int | None
    status: str
    failed_clauses: list[str] = field(default_factory=list)
    steps: list[dict] = field(default_factory=list)
    final: dict = field(default_factory=dict)
    norm_audit: list[dict] = field(default_factory=list)

    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "schema": "gapflow-report/1",
            "fingerprint": self.fingerprint,
            "model": {
                "d": self.d,
                "N": self.N,
                "M": self.M,
                "t": self.t,
                "seed": self.seed,
            },
            "j_max": self.j_max,
            "status": self.status,
            "failed_clauses": self.failed_clauses,
            "steps": self.steps,
            "final": self.final,
            "norm_audit": self.norm_audit,
        }


def model_fingerprint(spec: ModelSpec) -> str:
    """Stable hash of the model content (matrices included, coupling included)."""
    h = hashlib.sha256()
    payload = {
        "d": spec.lat.d,
        "N": spec.lat.N,
        "M": spec.M,
        "t": repr(spec.t),
        "seed": spec.rng_seed,
        "onsite": np.round(spec.onsite_h, 14).tolist(),
    }
    h.update(json.dumps(payload, sort_keys=True, default=str).encode())
    for J, mat in sorted(spec.potentials, key=lambda p: (p[0].k, p[0].q)):
        h.update(str((J.k, J.q)).encode())
        h.update(np.round(mat, 14).tobytes())
    return h.hexdigest()[:16]


def _step_dict(rec) -> dict:
    return {
        "index": rec.index,
        "k": list(rec.rect.k),
        "q": list(rec.rect.q),
        "circumference": rec.circumference,
        "skipped": rec.skipped,
        "g_gap": rec.g_gap,
        "e0": rec.e0,
        "s_norm": rec.s_norm,
        "v1_norm": rec.v1_norm,
        "tail_bound": rec.tail_bound,
        "tail_certified": rec.tail_certified,
        "od_residual": rec.od_residual,
        "spectrum_drift": rec.spectrum_drift,
        "residual": rec.residual,
        "regime": rec.regime,
    }


def verify_main_theorem(
    state: FlowState,
    tol: float = 1e-8,
    j_max: int | None = None,
    gap_slack: float = 1e-6,
) -> RunReport:
    """Check the end-of-flow claims: unique gapped ground state, block
    diagonality with respect to the all-vacuum projection, spectrum
    preservation, the vacuum as ground state of the transformed operator
    (its energy ``Kt[0,0]`` against the lowest eigenvalue of the original
    one), and the per-step gap hypothesis."""
    spec = state.spec
    failed: list[str] = []
    K = build_hamiltonian(spec)
    Kt = assemble_hamiltonian(state)
    w = hermitian_spectrum(K)
    wt, vecs = np.linalg.eigh(Kt.matrix)

    delta = float(wt[1] - wt[0])
    delta_original = float(w[1] - w[0])
    spectra_diff = float(np.max(np.abs(w - wt)))
    pvac_offblock = float(np.linalg.norm(Kt.matrix[0, 1:]))
    ground_overlap = float(np.abs(vecs[0, 0]))
    vacuum_energy = float(Kt.matrix[0, 0].real)
    gap_floor = GAP_FLOOR - gap_slack

    if delta < gap_floor:
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
    for rec in state.history:
        if rec.g_gap < gap_floor:
            failed.append(f"step-gap: gap {rec.g_gap:.9g} below 1/2 at step {rec.rect}")
        if rec.residual is not None and rec.residual > tol:
            failed.append(f"consistency: residual {rec.residual:.3g} at step {rec.rect}")

    audit = norm_decay_audit(state)
    for row in audit:
        if not row["pass"]:
            failed.append(
                f"norm-decay: circumference {row['circumference']} norm "
                f"{row['max_norm']:.6g} above bound {row['bound']:.6g}"
            )

    status = "pass" if not failed else "fail"
    if state.status == "hypothesis-violated":
        status = "hypothesis-violated"
    return RunReport(
        fingerprint=model_fingerprint(spec),
        d=spec.lat.d,
        N=spec.lat.N,
        M=spec.M,
        t=spec.t,
        seed=spec.rng_seed,
        j_max=j_max,
        status=status,
        failed_clauses=failed,
        steps=[_step_dict(r) for r in state.history],
        final={
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
            "flow_status": state.status,
        },
        norm_audit=audit,
    )


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
    """
    results = []
    for k in _shape_vectors(lat, max_sites):
        J = Rect(k, (1,) * lat.d)
        # every operator here is diagonal in the product basis: row i of the
        # mask flags, per basis vector of J, whether site i is excited
        n = J.n_sites
        mask = np.indices((M,) * n).reshape(n, -1) != 0
        row_of = {site: i for i, site in enumerate(J.sites())}
        site_sum = mask.sum(0)
        min_eig = float(np.min(site_sum - mask.any(0)))
        results.append(
            {
                "check": "site-sum-dominates-complement",
                "shape": list(k),
                "min_eig": min_eig,
                "pass": bool(min_eig >= 0),
            }
        )
        for l in _shape_vectors(lat, max_sites):
            if all(lj <= kj for lj, kj in zip(l, k)) and l != k:
                placements = []
                for q in product(
                    *(range(1, 1 + kj - lj + 1) for kj, lj in zip(k, l))
                ):
                    cand = Rect(l, q)
                    if J.contains(cand) and cand != J:
                        placements.append(cand)
                if not placements:
                    continue
                plus_sum = sum(
                    mask[[row_of[s] for s in cand.sites()]].any(0) for cand in placements
                )
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
