"""End-of-run verification and the operator-inequality suite."""

import time

import numpy as np
import pytest

from gapflow.flow import Tolerances, apply_step, initial_state, run_flow
from gapflow.geometry import LatticeSpec, Rect, enumerate_steps
from gapflow.model import ModelSpec, build_hamiltonian, default_onsite, random_model
from gapflow.tensor import LocalOp, hermitian_norm
from gapflow.verify import (
    inequality_suite,
    model_fingerprint,
    norm_decay_audit,
    verify_main_theorem,
)

from oracles import dense_inequality_rows

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def sxsx_chain(N, t):
    lat = LatticeSpec(1, N)
    pots = [(Rect((1,), (q,)), np.kron(SX, SX)) for q in range(1, N)]
    return ModelSpec(lat, 2, default_onsite(2), pots, t)


def clauses_after_perturbing(pick, change):
    """The failed clause names of the d=1 N=4 t=0.05 seed 56 flow after
    ``change(matrix, t)`` edits the stored entry ``pick(keys)`` chooses."""
    spec = random_model(LatticeSpec(1, 4), 2, 0.05, seed=56)
    state = run_flow(spec)
    assert verify_main_theorem(state)["status"] == "pass"
    key = pick(list(state.interactions))
    op = state.interactions[key]
    bumped = op.matrix.copy()
    change(bumped, spec.t)
    state.interactions[key] = LocalOp(key, bumped, op.M)
    return [c.split(":")[0] for c in verify_main_theorem(state)["failed_clauses"]]


def whole_lattice(keys):
    return max(keys, key=lambda k: k.circumference)


def on_site(keys):
    return next(k for k in keys if k.circumference == 0)


def couple_vacuum(size):
    # a Hermitian coupling of the vacuum to one excited basis vector
    def change(mat, t):
        mat[0, 1] += size / t
        mat[1, 0] += size / t

    return change


class TestVerifyMainTheorem:
    def test_unperturbed(self):
        spec = sxsx_chain(3, 0.0)
        report = verify_main_theorem(run_flow(spec))
        assert report["status"] == "pass"
        assert report["final"]["delta"] == pytest.approx(1.0, abs=1e-12)
        assert report["final"]["pvac_offblock"] == 0.0
        assert report["final"]["ground_overlap"] == pytest.approx(1.0, abs=1e-12)

    def test_two_site_closed_form_gap(self):
        spec = sxsx_chain(2, 0.1)
        report = verify_main_theorem(run_flow(spec))
        assert report["status"] == "pass"
        assert report["final"]["delta"] == pytest.approx(
            np.sqrt(1.01) - 0.1, abs=1e-9
        )

    def test_random_model_passes(self):
        spec = random_model(LatticeSpec(1, 4), 2, 0.05, seed=50)
        report = verify_main_theorem(run_flow(spec))
        assert report["status"] == "pass", report["failed_clauses"]

    def test_weak_gap_flagged(self):
        # a block-diagonal potential that lowers every excited level: the
        # series is trivial, but at coupling 0.6 intermediate and final gaps
        # drop below 1/2 and the forced run must report it
        lat = LatticeSpec(1, 3)
        v = np.diag([0.0, -1.0, -1.0, -1.0]).astype(complex)
        pots = [(Rect((1,), (q,)), v) for q in (1, 2)]
        spec = ModelSpec(lat, 2, default_onsite(2), pots, 0.6)
        report = verify_main_theorem(run_flow(spec, force=True))
        assert report["status"] != "pass"
        assert any(clause.startswith("step-gap") for clause in report["failed_clauses"])
        assert any(clause.startswith("gap:") for clause in report["failed_clauses"])

    def test_flow_failures_are_the_reports_flow_clauses(self):
        # one judge: the forced failing run above lists in state.failures
        # exactly the report's step-gap, consistency and norm-decay clauses
        lat = LatticeSpec(1, 3)
        v = np.diag([0.0, -1.0, -1.0, -1.0]).astype(complex)
        pots = [(Rect((1,), (q,)), v) for q in (1, 2)]
        spec = ModelSpec(lat, 2, default_onsite(2), pots, 0.6)
        state = run_flow(spec, force=True)
        report = verify_main_theorem(state)
        flow_keys = ("step-gap:", "consistency:", "norm-decay:")
        flow_clauses = [c for c in report["failed_clauses"] if c.startswith(flow_keys)]
        assert flow_clauses and state.failures == flow_clauses

    def test_one_verdict_however_the_flow_ran(self):
        # a unit-norm block-diagonal potential on a circumference-2 rectangle
        # fails the norm-decay audit; the report's status comes from its
        # failed clauses alone, so a state stepped by apply_step gets the
        # verdict of the same flow run by run_flow
        v = np.diag([0.0] + [1.0] * 7).astype(complex)
        pots = [(Rect((2,), (1,)), v)]
        spec = ModelSpec(LatticeSpec(1, 3), 2, default_onsite(2), pots, 0.05, k_bar=2)
        stepped = initial_state(spec)
        for _ in enumerate_steps(spec.lat):
            assert stepped.status == "running"
            stepped, _ = apply_step(stepped)
        state = run_flow(spec)
        # the state's own status and failures are derived the same way
        assert (stepped.status, stepped.failures) == (state.status, state.failures)
        assert state.status == "hypothesis-violated"
        flowed, stepwise = verify_main_theorem(state), verify_main_theorem(stepped)
        assert flowed["status"] == stepwise["status"] == "hypothesis-violated"
        assert flowed["failed_clauses"] == stepwise["failed_clauses"]
        assert any(c.startswith("norm-decay:") for c in flowed["failed_clauses"])

    def test_report_carries_the_flows_j_max(self):
        spec = random_model(LatticeSpec(1, 3), 2, 0.05, seed=1)
        assert verify_main_theorem(run_flow(spec, j_max=8))["j_max"] == 8

    def test_gap_shortfall_fails_one_clause(self):
        # the unflowed operator at coupling 0.6 has its lowest two levels
        # closer than 1/2; that shortfall is one failed clause, not two
        spec = sxsx_chain(3, 0.6)
        report = verify_main_theorem(initial_state(spec))
        delta = report["final"]["delta"]
        assert delta < 0.5
        shortfall = [c for c in report["failed_clauses"] if f"{delta:.9g}" in c]
        assert len(shortfall) == 1 and shortfall[0].startswith("gap:")

    def test_vacuum_energy_clause_sees_perturbed_entry(self):
        # shift the vacuum expectation of one stored entry after the flow by
        # t * delta = 1e-6; per-step values fixed during the flow cannot see it
        spec = random_model(LatticeSpec(1, 4), 2, 0.05, seed=56)
        state = run_flow(spec)
        assert verify_main_theorem(state)["status"] == "pass"
        key = next(k for k in state.interactions if k.circumference >= 1)
        op = state.interactions[key]
        bumped = op.matrix.copy()
        bumped[0, 0] += 1e-6 / spec.t
        state.interactions[key] = LocalOp(key, bumped, op.M)
        report = verify_main_theorem(state)
        assert any(c.startswith("vacuum-energy") for c in report["failed_clauses"])
        ground = np.linalg.eigvalsh(build_hamiltonian(spec).matrix)[0]
        assert report["final"]["vacuum_energy"] - ground == pytest.approx(1e-6, rel=1e-6)

    def test_block_diagonal_clause_sees_vacuum_coupling(self):
        # 1e-6 in the vacuum row and column of the whole-lattice entry moves
        # the spectrum and the ground vector by only about 1e-12
        failed = clauses_after_perturbing(whole_lattice, couple_vacuum(1e-6))
        assert failed == ["block-diagonal"]

    def test_spectrum_clause_sees_shifted_excited_level(self):
        # 1e-6 on the excited diagonal element of an on-site entry (which
        # the coupling t does not scale) moves the lowest gap by under 1e-9
        def shift(mat, t):
            mat[1, 1] += 1e-6

        failed = clauses_after_perturbing(on_site, shift)
        assert failed == ["spectrum"]

    def test_gap_invariance_clause_sees_split_levels(self):
        # the vacuum energy lowered and every excited level raised by 0.6
        # times the spectral tolerance: no level moves past the tolerance,
        # so spectrum and vacuum-energy hold, but the gap moves by 1.2 times it
        def split(mat, t):
            a = 0.6 * Tolerances().spectral / t
            mat += a * np.eye(len(mat))
            mat[0, 0] -= 2 * a

        failed = clauses_after_perturbing(whole_lattice, split)
        assert failed == ["gap-invariance"]

    def test_ground_vector_clause_sees_strong_vacuum_coupling(self):
        # a coupling large enough to tilt the ground vector by more than the
        # tolerance also moves the spectrum and the gap
        failed = clauses_after_perturbing(whole_lattice, couple_vacuum(1e-3))
        assert failed == ["block-diagonal", "spectrum", "gap-invariance", "ground-vector"]

    def test_spectrum_clause_sees_dropped_overlap_contributions(self, monkeypatch):
        # a map update in which no stored entry overlaps the step rectangle
        # drops every commutator contribution but still stores each step's
        # block-diagonal potential, so no step claim fails; with no oracle
        # in never mode, the dense clauses see the lost terms
        spec = random_model(LatticeSpec(1, 6), 2, 0.05, seed=1)
        with monkeypatch.context() as patch:
            patch.setattr(Rect, "overlaps", lambda a, b: False)
            state = run_flow(spec, check_consistency="never")
        assert state.failures == []
        failed = [clause.split(":")[0] for clause in verify_main_theorem(state)["failed_clauses"]]
        assert failed == ["spectrum", "gap-invariance", "vacuum-energy"]

    def test_non_hermitian_final_map_refused(self):
        # eigh reads one triangle of Kt, so an entry bumped above its
        # diagonal alone would pass unseen; Kt gets K's Hermiticity refusal
        # (an on-site entry, which the norm audit does not read)
        spec = random_model(LatticeSpec(1, 4), 2, 0.05, seed=56)
        state = run_flow(spec)
        key = next(k for k in state.interactions if k.circumference == 0)
        op = state.interactions[key]
        bumped = op.matrix.copy()
        bumped[0, 1] += 1e-3
        state.interactions[key] = LocalOp(key, bumped, op.M)
        with pytest.raises(ValueError, match="not Hermitian within tolerance"):
            verify_main_theorem(state)

    def test_report_deterministic(self):
        spec_a = random_model(LatticeSpec(1, 3), 2, 0.05, seed=51)
        spec_b = random_model(LatticeSpec(1, 3), 2, 0.05, seed=51)
        rep_a = verify_main_theorem(run_flow(spec_a))
        rep_b = verify_main_theorem(run_flow(spec_b))
        assert rep_a == rep_b

    def test_fingerprint_ignores_the_sign_of_zero(self):
        # off-diagonal zeros moved by -1e-17 (real and imaginary), far below
        # the 14-decimal rounding, round to -0.0, which hashes as 0.0
        spec = sxsx_chain(3, 0.05)
        nudge = np.zeros((2, 2), dtype=complex)
        nudge[0, 1] = -1e-17 * (1 + 1j)
        nudge[1, 0] = np.conj(nudge[0, 1])
        onsite = spec.onsite_h + nudge
        pots = [(J, mat + np.kron(nudge, np.eye(2))) for J, mat in spec.potentials]
        nudged = ModelSpec(spec.lat, spec.M, onsite, pots, spec.t)
        assert model_fingerprint(nudged) == model_fingerprint(spec)

    def test_fingerprint_tracks_model_content(self):
        a = random_model(LatticeSpec(1, 3), 2, 0.05, seed=52)
        b = random_model(LatticeSpec(1, 3), 2, 0.05, seed=53)
        assert model_fingerprint(a) != model_fingerprint(b)
        assert model_fingerprint(a) == model_fingerprint(
            random_model(LatticeSpec(1, 3), 2, 0.05, seed=52)
        )


class TestNormDecayAudit:
    def test_zero_coupling_pure_coupler_empty(self):
        # a potential linking only the vacuum to the doubly excited state
        # has no block-diagonal part, so nothing survives at zero coupling
        lat = LatticeSpec(1, 3)
        v = np.zeros((4, 4), dtype=complex)
        v[0, 3] = v[3, 0] = 1.0
        pots = [(Rect((1,), (q,)), v) for q in (1, 2)]
        spec = ModelSpec(lat, 2, default_onsite(2), pots, 0.0)
        state = run_flow(spec)
        assert norm_decay_audit(state) == []

    def test_unit_circumference_reports_but_never_fails(self):
        spec = random_model(LatticeSpec(1, 4), 2, 0.05, seed=54)
        state = run_flow(spec)
        rows = norm_decay_audit(state)
        r1 = [row for row in rows if row["circumference"] == 1]
        assert r1 and all(row["pass"] for row in r1)

    def test_rows_follow_replaced_entries(self):
        # an entry replaced after the flow is audited by its own norm
        spec = random_model(LatticeSpec(1, 4), 2, 0.05, seed=54)
        state = run_flow(spec)
        norms = {k: hermitian_norm(op) for k, op in state.interactions.items()}
        key = max((k for k in norms if k.circumference == 2), key=norms.get)
        state.interactions[key] = LocalOp(key, 2 * state.interactions[key].matrix, 2)
        (row,) = [row for row in norm_decay_audit(state) if row["circumference"] == 2]
        assert row["max_norm"] == pytest.approx(2 * norms[key], rel=1e-14)

    def test_chain_passes_at_small_coupling(self):
        spec = random_model(LatticeSpec(1, 5), 2, 0.05, seed=55)
        state = run_flow(spec)
        for row in norm_decay_audit(state):
            if row["circumference"] >= 2:
                assert row["pass"]
                assert row["max_norm"] <= row["bound"]


class TestInequalitySuite:
    def test_single_site_equality(self):
        rows = inequality_suite(LatticeSpec(1, 2), 2, max_sites=1)
        # one site: the site sum equals the complement projector exactly
        assert rows and all(abs(r["min_eig"]) < 1e-14 for r in rows)

    def test_two_site_edge(self):
        rows = inequality_suite(LatticeSpec(1, 2), 2, max_sites=2)
        shapes = {tuple(r["shape"]): r for r in rows if r["check"].startswith("site-sum")}
        assert shapes[(1,)]["min_eig"] == pytest.approx(0.0, abs=1e-13)
        assert all(r["pass"] for r in rows)

    def test_small_two_dimensional_suite(self):
        rows = inequality_suite(LatticeSpec(2, 3), 2, max_sites=6)
        assert any(r["check"] == "weighted-site-sum-dominates-placements" for r in rows)
        assert all(r["pass"] for r in rows)

    def test_m3_passes(self):
        rows = inequality_suite(LatticeSpec(1, 3), 3, max_sites=3)
        assert all(r["pass"] for r in rows)

    @pytest.mark.parametrize("d, N", [(3, 2), (2, 3)])
    def test_shapes_bounded_by_the_lattice(self, d, N):
        # every shape of a lattice with at most 10 sites already fits under
        # max_sites=10, so a far larger cap adds no row and no time
        lat = LatticeSpec(d, N)
        start = time.perf_counter()
        rows = inequality_suite(lat, 2, max_sites=10**4)
        assert time.perf_counter() - start < 0.5
        assert rows == inequality_suite(lat, 2, max_sites=10)

    def test_benchmark_lattice_rows_pinned(self):
        # the row counts of the d=1 and d=2 N=10 suites at max_sites=10
        counts = [len(inequality_suite(LatticeSpec(d, 10), 2, max_sites=10)) for d in (1, 2)]
        assert counts == [55, 170]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("M", [2, 3])
    def test_matches_dense_projector_oracle(self, d, M):
        # at d=3 the excitation grid has three site axes; N=3 keeps the
        # dense oracle under a second
        lat = LatticeSpec(d, 6 if d < 3 else 3)
        assert inequality_suite(lat, M, max_sites=6) == dense_inequality_rows(lat, M, 6)

