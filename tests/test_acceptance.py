"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Criterion-2 flow states are shared through a module fixture because the
inductive-gap, majorant, and norm-decay criteria audit the same runs.
"""

import itertools
import json
import subprocess
import sys
import time
from math import comb

import numpy as np
import pytest

from gapflow.expansion import (
    branch_sum,
    build_gamma,
    closed_path,
    decompose_components,
    enumerate_branches,
    is_connected_family,
    weighted_branch_sum,
)
from gapflow.flow import (
    apply_step,
    assemble_hamiltonian,
    consistency_check,
    initial_state,
    run_flow,
)
from gapflow.geometry import (
    LatticeSpec,
    Rect,
    all_rects,
    compare_step,
    count_shapes,
    enumerate_steps,
    minimal_rectangle,
    step_sort_key,
)
from gapflow.model import ModelSpec, build_hamiltonian, default_onsite, random_model
from gapflow.schwinger import MAJORANT_A, majorants
from gapflow.tensor import SiteSpace
from gapflow.verify import inequality_suite, norm_decay_audit, verify_main_theorem

from oracles import bounding_rect
from test_expansion import assert_gamma_properties, random_connected_family

SEED = 1
C2_CASES = [(d, N, t) for d, N in [(1, 6), (2, 3)] for t in (0.01, 0.02, 0.05)]


def announce(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


@pytest.fixture(scope="module")
def c2_runs():
    """Seeded criterion-2 flows, computed once and audited by several criteria."""
    runs = {}
    for d, N, t in C2_CASES:
        spec = random_model(LatticeSpec(d, N), 2, t, seed=SEED)
        state = run_flow(spec, j_max=12, check_consistency="every-step")
        runs[(d, N, t)] = (spec, state)
    return runs


class TestCriterion1:
    def test_closed_form_gap(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        t = 0.1
        spec = ModelSpec(
            LatticeSpec(1, 2),
            SiteSpace(2),
            default_onsite(2),
            [(Rect((1,), (1,)), np.kron(sx, sx))],
            t,
        )
        start = time.perf_counter()
        state = run_flow(spec, j_max=12)
        report = verify_main_theorem(state)
        elapsed = time.perf_counter() - start
        expected = np.sqrt(1 + t * t) - t
        assert abs(report.final["delta"] - expected) <= 1e-9
        assert elapsed < 1.0
        announce(1, "closed-form gap")


class TestCriterion2:
    def test_main_theorem_desk_scale(self, c2_runs):
        for (d, N, t), (spec, state) in c2_runs.items():
            report = verify_main_theorem(state, tol=1e-8)
            assert report.passed(), ((d, N, t), report.failed_clauses)
            assert report.final["delta"] >= 0.5 - 1e-6
            assert report.final["pvac_offblock"] <= 1e-8
            assert report.final["spectra_max_diff"] <= 1e-8
            # unique ground state: the next level clears the same margin
            assert report.final["ground_overlap"] >= 1.0 - 1e-8
        announce(2, "gap stability at desk scale")


class TestCriterion3:
    def test_stepwise_conjugation_consistency(self):
        for d, N in [(1, 4), (2, 2)]:
            spec = random_model(LatticeSpec(d, N), 2, 0.05, seed=SEED)
            state = initial_state(spec)
            before = assemble_hamiltonian(state)
            worst = 0.0
            for _ in enumerate_steps(spec.lat):
                state, _ = apply_step(state, j_max=12)
                residual, before = consistency_check(before, state)
                worst = max(worst, residual)
            assert worst <= 1e-9, (d, N, worst)
        announce(3, "conjugation consistency")


class TestCriterion4:
    def test_inductive_gap_and_vacuum_energy(self, c2_runs):
        for (d, N, t), (spec, state) in c2_runs.items():
            for rec in state.history:
                assert rec.g_gap >= 0.5, ((d, N, t), rec.rect, rec.g_gap)
            # the vacuum is the ground state of the transformed operator
            vacuum = verify_main_theorem(state).final["vacuum_energy"]
            ground = np.linalg.eigvalsh(build_hamiltonian(spec).matrix)[0]
            assert abs(vacuum - ground) <= 1e-10, ((d, N, t), vacuum, ground)
        announce(4, "inductive gap claim")


class TestCriterion5:
    def test_operator_inequalities(self):
        for d in (1, 2):
            rows = inequality_suite(LatticeSpec(d, 10), 2, max_sites=10)
            assert rows
            for row in rows:
                assert row["min_eig"] >= -1e-12, row
        announce(5, "operator inequality suite")


class TestCriterion6:
    def test_series_majorants_and_tails(self, c2_runs):
        a = MAJORANT_A
        checked_tail = 0
        for (d, N, t), (spec, state) in c2_runs.items():
            for rec in state.history:
                if rec.skipped:
                    continue
                # computed orders stay under the recursive majorants
                assert rec.term_norms and rec.v1_norm > 0
                b = majorants(rec.v1_norm, len(rec.term_norms)).b[: len(rec.term_norms)]
                for nrm, bj in zip(rec.term_norms, b):
                    assert nrm <= bj * (1 + 1e-12)
                # majorants are the branch-series coefficients (Catalan oracle)
                for j, bj in enumerate(b, start=1):
                    catalan = comb(2 * (j - 1), j - 1) // j
                    closed = catalan * rec.v1_norm**j / a ** (j - 1)
                    assert bj == pytest.approx(closed, rel=1e-8)
                # the off-block residual of the conjugated local operator is
                # inside the certificate; 1e-12 covers dense-algebra noise
                assert rec.od_residual <= t * rec.tail_bound + 1e-12
                if rec.tail_certified:
                    checked_tail += 1
        assert checked_tail > 0
        announce(6, "series majorants")


class TestCriterion7:
    def test_norm_decay_hypothesis(self, c2_runs):
        for (d, N, t), (spec, state) in c2_runs.items():
            for row in norm_decay_audit(state):
                if row["circumference"] >= 2:
                    assert row["pass"], ((d, N, t), row)
        announce(7, "norm decay hypothesis")


class TestCriterion8:
    def test_total_order(self):
        rects = all_rects(LatticeSpec(2, 3))
        for x, y in itertools.combinations(rects, 2):
            assert compare_step(x, y) == -compare_step(y, x) != 0
        ranked = {r: i for i, r in enumerate(sorted(rects, key=step_sort_key))}
        for x, y, z in itertools.combinations(rects, 3):
            # transitivity: pairwise comparisons agree with a single ranking
            for a, b in ((x, y), (y, z), (x, z)):
                assert compare_step(a, b) == np.sign(ranked[a] - ranked[b])

    def test_minimal_rectangle_oracle(self):
        rects = all_rects(LatticeSpec(2, 4))
        for x, y in itertools.combinations_with_replacement(rects, 2):
            if not x.overlaps(y):
                continue
            got = minimal_rectangle(x, y)
            for cand in rects:
                if cand.contains(x) and cand.contains(y):
                    assert cand.n_sites >= got.n_sites

    def test_shape_count_bound(self):
        for d in range(1, 5):
            for l in range(21):
                assert count_shapes(l, d) <= (l + 1) ** (d - 1)

    def test_paths_on_random_families(self):
        rng = np.random.default_rng(2024)
        lat = LatticeSpec(2, 4)
        for _ in range(100):
            circ = int(rng.integers(1, 4))
            fam = random_connected_family(rng, lat, int(rng.integers(1, 8)), circ=circ)
            path = closed_path(fam)
            assert path.length == 2 * len(fam) - 2
            assert path.support == set(fam) and path.is_closed
        for _ in range(100):
            fam = random_connected_family(rng, lat, int(rng.integers(1, 5)), circ=1)
            for circ in (2, 3):
                extra = [
                    r
                    for r in all_rects(lat, min_circ=circ)
                    if r.circumference == circ and any(r.overlaps(f) for f in fam)
                ]
                rng.shuffle(extra)
                fam.extend(extra[: rng.integers(0, 3)])
            decomp = decompose_components(fam)
            assert_gamma_properties(build_gamma(decomp), decomp)

    def test_branches_and_weights(self):
        for d, N in [(1, 3), (2, 2)]:
            spec = random_model(LatticeSpec(d, N), 2, 0.05, seed=SEED)
            state = run_flow(spec, keep_history=True)
            steps = enumerate_steps(spec.lat)
            target = spec.lat.full_rect()
            v1n = {r.rect: r.v1_norm for r in state.history if not r.skipped}
            for i, root in enumerate(steps):
                exp = enumerate_branches(target, root, state)
                # P-i: suffix unions stay connected in application order
                for b in exp.branches:
                    for start in range(len(b.rects)):
                        assert is_connected_family(b.rects[start:])
                    assert bounding_rect(b.rects) == target
                # P-iv: branch -> rectangle sequence is injective
                seqs = [b.rects for b in exp.branches]
                assert len(seqs) == len(set(seqs))
                # reconciliation and weight domination
                total = branch_sum(exp, 2).matrix
                stored = state.map_snapshots[i].get(target)
                stored_m = (
                    stored.matrix if stored is not None else np.zeros_like(total)
                )
                assert np.linalg.norm(total - stored_m, 2) <= 1e-9
                lhs, rhs = weighted_branch_sum(exp, spec.t, v1n)
                assert lhs <= rhs + 1e-12
        announce(8, "rectangle and branch combinatorics")


class TestCriterion9:
    def test_report_determinism(self, tmp_path):
        texts = []
        for tag in ("first", "second"):
            report = tmp_path / f"{tag}.json"
            payload = {
                "d": 1,
                "N": 6,
                "t": 0.05,
                "seed": SEED,
                "output": {"report": str(report)},
            }
            cfg = tmp_path / f"{tag}.cfg.json"
            cfg.write_text(json.dumps(payload))
            proc = subprocess.run(
                [sys.executable, "-m", "gapflow.cli", "--config", str(cfg)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            texts.append(
                "\n".join(
                    l for l in report.read_text().splitlines() if '"timestamp"' not in l
                )
            )
        assert texts[0] == texts[1]
        announce(9, "report determinism")
