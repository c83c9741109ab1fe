"""The benchmark's workloads: set-up, timed body, independent check.

Each workload is set up from a seed, run once, and checked outside the
timed region against a recomputation that needs no stored reference.

``cli`` workloads go through the command-line path: the benchmark draws
the model from the seed with ``model.random_model`` and writes it into a
config as explicit potentials, so the program receives only the generated
model; ``cli.parse_config`` then ``cli.run`` produce the report on disk.
``audit`` workloads go through the library path: a flow that keeps its
history, the branch re-expansion of every root step, and the
operator-inequality suite.

Only stdlib is imported here at module level; numpy and gapflow are
imported by the functions, after the caller has pinned the BLAS threads
and put ``src`` on the path.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

M = 2
J_MAX = 12
SPECTRAL_TOL = 1e-8
BRANCH_TOL = 1e-9
WEIGHT_SLACK = 1e-12
INEQ_LATTICE_N = 10
INEQ_MAX_SITES = 10


@dataclass(frozen=True)
class Workload:
    kind: str  # "cli" or "audit"
    d: int
    N: int
    t: float


WORKLOADS = {
    "cube_d3n2": Workload("cli", 3, 2, 0.02),
    "chain_d1n8": Workload("cli", 1, 8, 0.05),
    "audit_d1n6": Workload("audit", 1, 6, 0.05),
    # harness self-test size, not in BENCHMARK.json
    "tiny": Workload("cli", 1, 3, 0.05),
}


def setup(wl: Workload, seed: int, workdir: str) -> dict:
    """Generate the model from ``seed``; for the CLI path also write and
    parse its config. Returns the context the body and the check use."""
    from gapflow import geometry, model

    spec = model.random_model(geometry.LatticeSpec(wl.d, wl.N), M, wl.t, seed)
    ctx = {"spec": spec}
    if wl.kind == "cli":
        from gapflow import cli

        config_path = os.path.join(workdir, "config.json")
        ctx["report_path"] = os.path.join(workdir, "report.json")
        raw = {
            "d": wl.d,
            "N": wl.N,
            "M": M,
            "t": wl.t,
            "j_max": J_MAX,
            "potentials": [
                {
                    "k": list(J.k),
                    "q": list(J.q),
                    "matrix": [[[z.real, z.imag] for z in row] for row in mat.tolist()],
                }
                for J, mat in spec.potentials
            ],
            "tolerances": {"spectral": SPECTRAL_TOL},
            "checks": {"consistency": "auto"},
            "output": {"report": ctx["report_path"]},
        }
        with open(config_path, "w") as fh:
            json.dump(raw, fh)
        ctx["config"] = cli.parse_config(config_path)
    return ctx


def run(wl: Workload, ctx: dict) -> dict:
    """The timed body. CLI: ends when the report is on disk."""
    if wl.kind == "cli":
        from gapflow import cli

        return {"code": cli.run(ctx["config"])}

    from gapflow import expansion, flow, geometry, verify

    spec = ctx["spec"]
    state = flow.run_flow(spec, j_max=J_MAX, keep_history=True)
    full = spec.lat.full_rect()
    v1_norms = {rec.rect: rec.v1_norm for rec in state.history if not rec.skipped}
    sums, weighted = [], []
    for step in geometry.enumerate_steps(spec.lat):
        exp = expansion.enumerate_branches(full, step, state)
        sums.append(expansion.branch_sum(exp, spec.M).matrix)
        weighted.append(expansion.weighted_branch_sum(exp, spec.t, v1_norms))
    rows = []
    for d in (1, 2):
        lat = geometry.LatticeSpec(d, INEQ_LATTICE_N)
        rows += verify.inequality_suite(lat, spec.M, INEQ_MAX_SITES)
    return {"state": state, "sums": sums, "weighted": weighted, "rows": rows}


def corrupt(wl: Workload, ctx: dict, out: dict) -> None:
    """Perturb the result the way a wrong program would (harness self-test)."""
    if wl.kind == "cli":
        with open(ctx["report_path"]) as fh:
            report = json.load(fh)
        report["final"]["ground_energy"] += 1e-6
        with open(ctx["report_path"], "w") as fh:
            json.dump(report, fh)
    else:
        out["sums"][-1] = out["sums"][-1] + 1e-6


def check(wl: Workload, ctx: dict, out: dict) -> list[str]:
    """Independent check of the output; returns the problems found."""
    import numpy as np
    from gapflow import geometry, model

    spec = ctx["spec"]
    n_steps = len(geometry.enumerate_steps(spec.lat))
    problems = []
    if wl.kind == "cli":
        if out["code"] != 0:
            problems.append(f"cli.run returned {out['code']}")
        with open(ctx["report_path"]) as fh:
            report = json.load(fh)
        if report["status"] != "pass":
            problems.append(f"report status {report['status']}: {report['failed_clauses']}")
        if len(report["steps"]) != n_steps:
            problems.append(f"report has {len(report['steps'])} steps, lattice has {n_steps}")
        w = np.linalg.eigvalsh(model.build_hamiltonian(spec).matrix)
        final = report["final"]
        if abs(final["ground_energy"] - w[0]) > SPECTRAL_TOL:
            problems.append(f"ground energy {final['ground_energy']!r} vs eigvalsh {w[0]!r}")
        if abs(final["delta"] - (w[1] - w[0])) > SPECTRAL_TOL:
            problems.append(f"gap {final['delta']!r} vs eigvalsh {w[1] - w[0]!r}")
        return problems

    state = out["state"]
    if state.status != "completed" or state.failures:
        problems.append(f"flow status {state.status}: {state.failures}")
    if len(state.history) != n_steps:
        problems.append(f"flow ran {len(state.history)} of {n_steps} steps")
    full = spec.lat.full_rect()
    for i, total in enumerate(out["sums"]):
        stored = state.map_snapshots[i].get(full)
        ref = stored.matrix if stored is not None else np.zeros_like(total)
        err = float(np.linalg.norm(total - ref, 2))
        if err > BRANCH_TOL:
            problems.append(f"branch sum at root step {i} is {err:.3g} from its snapshot")
    for i, (lhs, rhs) in enumerate(out["weighted"]):
        if lhs > rhs + WEIGHT_SLACK:
            problems.append(f"weighted branch sum at root step {i}: {lhs!r} > {rhs!r}")
    failing = [row for row in out["rows"] if not row["pass"]]
    if failing or not out["rows"]:
        problems.append(f"{len(failing)} of {len(out['rows'])} inequality rows fail")
    return problems
