"""Flow driver: step application, recombination, consistency, full runs."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from gapflow import flow
from gapflow.flow import (
    PRUNE_THRESHOLD,
    StepRecord,
    apply_step,
    assemble_hamiltonian,
    consistency_check,
    initial_state,
    max_norm_by_circumference,
    regime_of,
    run_flow,
    set_entry,
)
from gapflow.geometry import LatticeSpec, Rect, compare_step, enumerate_steps
from gapflow.model import ModelSpec, build_hamiltonian, default_onsite, random_model
from gapflow.schwinger import GapError, generator_exponential, rotation_delta
from gapflow.tensor import LocalOp, SiteSpace, embed, hermitian_spectrum, offdiag_norm, op_norm
from gapflow.verify import verify_main_theorem

import oracles
from oracles import (
    dense_generator,
    dense_step_series,
    kron_embed,
    projector_minus,
    projector_plus,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
HADAMARD = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]])


def sxsx_chain(N, t):
    lat = LatticeSpec(1, N)
    pots = [(Rect((1,), (q,)), np.kron(SX, SX)) for q in range(1, N)]
    return ModelSpec(lat, SiteSpace(2), default_onsite(2), pots, t)


class TestInteractionMap:
    def test_prunes_tiny_entries(self):
        edge = Rect((1,), (1,))
        imap = {edge: LocalOp(edge, np.eye(4), 2)}
        set_entry(imap, edge, LocalOp(edge, 1e-15 * np.eye(4), 2))
        assert edge not in imap

    def test_support_mismatch_rejected(self):
        imap = {}
        with pytest.raises(ValueError, match="does not match"):
            set_entry(imap, Rect((1,), (1,)), LocalOp(Rect((1,), (2,)), np.eye(4), 2))
        assert imap == {}

    @pytest.mark.parametrize(
        "mat, svd",
        [
            # Frobenius norm just below the threshold: pruned without an SVD
            pytest.param(np.diag([1 - 1e-9, 0, 0, 0]), False, id="below threshold"),
            # just above it, sqrt(||A||_1 ||A||_inf) at or below the
            # threshold prunes, and a column norm above it keeps, either
            # way without an SVD
            pytest.param(
                np.diag([0.5 + 1e-9, 0.5, 0.5, 0.5]), False, id="above threshold, spread"
            ),
            pytest.param(np.diag([1 + 1e-9, 0, 0, 0]), False, id="above threshold, rank one"),
            # just below sqrt(n) times the threshold the row bound prunes;
            # just above it the entry is kept by the Frobenius norm
            pytest.param(np.diag([1 - 1e-9] * 4), False, id="below sqrt(n) bound"),
            pytest.param(np.diag([1 + 1e-9] * 4), False, id="above sqrt(n) bound"),
            # when all four bounds straddle the threshold the SVD decides
            pytest.param((1 + 1e-9) / 4 * np.ones((4, 4)), True, id="straddled, above"),
            pytest.param((1 - 1e-9) / 2 * HADAMARD, True, id="straddled, below"),
            # ||A||_1 alone is no upper bound: one row has ||A|| = 2 ||A||_1
            pytest.param(
                (1 + 1e-9) / 2 * np.outer([1, 0, 0, 0], [1, 1, 1, 1]), True, id="straddled, one row"
            ),
        ],
    )
    def test_prune_bounds(self, monkeypatch, mat, svd):
        edge = Rect((1,), (1,))
        op = LocalOp(edge, PRUNE_THRESHOLD * mat, 2)
        keep = np.linalg.norm(op.matrix, 2) > PRUNE_THRESHOLD
        calls = []
        monkeypatch.setattr(flow, "op_norm", lambda a: calls.append(1) or op_norm(a))
        imap = {}
        set_entry(imap, edge, op)
        assert (edge in imap) == keep
        assert bool(calls) == svd

    @pytest.mark.parametrize("dim", [4, 16, 64])
    @pytest.mark.parametrize("rank", ["one", "full"])
    @pytest.mark.parametrize("hermitian", [True, False])
    def test_prune_agrees_with_svd_at_threshold(self, dim, rank, hermitian):
        # matrices scaled to just above and just below the threshold are
        # kept or dropped exactly as the SVD rule decides
        rng = np.random.default_rng(dim)
        n_sites = int(np.log2(dim))
        rect = Rect((n_sites - 1,), (1,))
        for _ in range(10):
            if rank == "one":
                v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                w = v if hermitian else rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                raw = np.outer(v, w.conj())
            else:
                raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                if hermitian:
                    raw = raw + raw.conj().T
            unit = raw / np.linalg.norm(raw, 2)
            for scale in (1 - 1e-9, 1 + 1e-9):
                op = LocalOp(rect, PRUNE_THRESHOLD * scale * unit, 2)
                imap = {}
                set_entry(imap, rect, op)
                assert (rect in imap) == (np.linalg.norm(op.matrix, 2) > PRUNE_THRESHOLD)


class TestApplyStep:
    def test_refuses_to_run_past_the_last_step(self):
        spec = sxsx_chain(3, 0.05)
        state = initial_state(spec)
        for J in enumerate_steps(spec.lat):
            state, _ = apply_step(state)
            assert state.history[-1].rect == J
        with pytest.raises(ValueError, match="already run all 3 steps"):
            apply_step(state)

    def test_diagonal_potential_leaves_map_unchanged(self):
        lat = LatticeSpec(1, 2)
        v = np.diag([0.4, -0.1, 0.2, 0.3])
        spec = ModelSpec(lat, SiteSpace(2), default_onsite(2), [(Rect((1,), (1,)), v)], 0.1)
        state = initial_state(spec)
        new, ops = apply_step(state)
        assert np.allclose(new.interactions.get(Rect((1,), (1,))).matrix, v)
        assert np.linalg.norm(ops.generator) < 1e-15
        assert new.history[-1].rect == Rect((1,), (1,))
        # a vanishing generator leaves nothing for the conjugation to move
        before = assemble_hamiltonian(state)
        assert consistency_check(before, new)[0] <= 1e-13

    def test_disjoint_entries_untouched(self):
        spec = sxsx_chain(4, 0.05)
        state = initial_state(spec)
        first = Rect((1,), (1,))
        far_edge = Rect((1,), (3,))
        before = state.interactions.get(far_edge).matrix
        new, _ = apply_step(state)
        assert new.history[-1].rect == first
        assert np.array_equal(new.interactions.get(far_edge).matrix, before)

    def test_step_entry_becomes_block_diagonal(self):
        spec = random_model(LatticeSpec(1, 3), 2, 0.05, seed=21)
        state = initial_state(spec)
        for J in enumerate_steps(spec.lat):
            state, ops = apply_step(state)
            entry = state.interactions.get(J)
            if entry is not None:
                tail = ops.tail_bound if ops is not None else 0.0
                assert offdiag_norm(entry.matrix) <= tail + 1e-13

    def test_monotone_diagonalization(self):
        # every entry at or before the current step stays block-diagonal
        # within the accumulated truncation budget, at every moment
        spec = random_model(LatticeSpec(1, 4), 2, 0.05, seed=32)
        state = initial_state(spec)
        budget = 0.0
        for J in enumerate_steps(spec.lat):
            state, ops = apply_step(state)
            budget += (ops.tail_bound if ops is not None else 0.0) + 1e-13
            for key, op in state.interactions.items():
                if key.circumference >= 1 and compare_step(key, J) <= 0:
                    assert offdiag_norm(op.matrix) <= budget

    def test_growth_lands_on_minimal_rectangle(self):
        # after the first edge step the commutator weight sits on the span
        # of that edge with its overlapping neighbor
        spec = random_model(LatticeSpec(1, 3), 2, 0.05, seed=22)
        state = initial_state(spec)
        new, _ = apply_step(state)
        grown = new.interactions.get(Rect((2,), (1,)))
        assert grown is not None and np.linalg.norm(grown.matrix, 2) > 1e-6

    def test_history_snapshot_leaves_caller_state_alone(self):
        spec = random_model(LatticeSpec(1, 3), 2, 0.05, seed=23)
        state = initial_state(spec, keep_history=True)
        new, _ = apply_step(state)
        assert state.map_snapshots == []
        assert new.map_snapshots is not state.map_snapshots
        assert new.map_snapshots == [new.interactions]

    def test_gap_failure_aborts_without_force(self):
        # an engineered block-diagonal entry inside the next step rectangle
        # drags its excited block below 1/2
        spec = sxsx_chain(3, 0.05)
        state = initial_state(spec)
        state, _ = apply_step(state)
        sabotage = Rect((1,), (2,))
        bad = np.diag([0.0, -12.0, -12.0, -12.0]).astype(complex)
        state.interactions[sabotage] = LocalOp(sabotage, bad, 2)
        state, _ = apply_step(state)
        with pytest.raises(GapError, match="inductive gap hypothesis"):
            apply_step(state)


class TestAssembleAndConsistency:
    def test_initial_assembly_matches_build(self):
        spec = random_model(LatticeSpec(2, 2), 2, 0.05, seed=23)
        state = initial_state(spec)
        a = assemble_hamiltonian(state).matrix
        b = build_hamiltonian(spec).matrix
        assert np.linalg.norm(a - b, 2) < 1e-14

    @pytest.mark.parametrize("d,N", [(1, 3), (1, 4), (2, 2)])
    def test_stepwise_consistency(self, d, N):
        spec = random_model(LatticeSpec(d, N), 2, 0.05, seed=24)
        state = initial_state(spec)
        before = assemble_hamiltonian(state)
        for J in enumerate_steps(spec.lat):
            state, _ = apply_step(state, j_max=12)
            res, before = consistency_check(before, state)
            assert res <= 1e-9

    @pytest.mark.parametrize("d,N", [(1, 4), (2, 2)])
    def test_closed_form_oracle_matches_expm(self, d, N):
        # exp(S) (x) I from the logged vector against scipy's expm of the
        # dense S embedded on the full lattice, and the residual built on each
        spec = random_model(LatticeSpec(d, N), 2, 0.05, seed=24)
        full = spec.lat.full_rect()
        state = initial_state(spec)
        before = assemble_hamiltonian(state)
        checked = 0
        for J in enumerate_steps(spec.lat):
            prev = before
            state, ops = apply_step(state, j_max=12)
            res, before = consistency_check(prev, state)
            # the check hands back the assembly after the step, for the next one
            assert np.array_equal(before.matrix, assemble_hamiltonian(state).matrix)
            if ops is None:
                continue
            x = state.history[-1].generator
            assert x is ops.generator
            u_ref = expm(kron_embed(LocalOp(J, dense_generator(x), 2), full).matrix)
            u = kron_embed(LocalOp(J, generator_exponential(x), 2), full).matrix
            assert np.linalg.norm(u - u_ref, 2) <= 1e-12
            ref = np.linalg.norm(before.matrix - u_ref @ prev.matrix @ u_ref.conj().T)
            assert abs(res - ref) <= 1e-12
            checked += 1
        assert checked == sum(not rec.skipped for rec in state.history) > 0

    def test_final_block_diagonality(self):
        spec = random_model(LatticeSpec(1, 4), 2, 0.05, seed=25)
        state = run_flow(spec)
        kt = assemble_hamiltonian(state).matrix
        assert np.linalg.norm(kt[0, 1:]) <= 1e-10


class TestRunFlow:
    def test_closed_form_gap(self):
        spec = sxsx_chain(2, 0.1)
        state = run_flow(spec)
        w = hermitian_spectrum(assemble_hamiltonian(state))
        expected = np.sqrt(1 + 0.01) - 0.1
        assert abs((w[1] - w[0]) - expected) < 1e-9
        assert w[1] - w[0] >= 0.5

    def test_t_zero_is_identity(self):
        spec = sxsx_chain(3, 0.0)
        state = run_flow(spec)
        kt = assemble_hamiltonian(state).matrix
        k0 = build_hamiltonian(spec).matrix
        assert np.linalg.norm(kt - k0, 2) < 1e-14
        assert all(rec.s_norm < 1e-15 for rec in state.history)

    def test_spectrum_invariance(self):
        spec = random_model(LatticeSpec(1, 5), 2, 0.05, seed=26)
        state = run_flow(spec)
        w0 = hermitian_spectrum(build_hamiltonian(spec))
        w1 = hermitian_spectrum(assemble_hamiltonian(state))
        assert np.max(np.abs(w0 - w1)) < 1e-8

    def test_diagonalized_entries_stay_block_diagonal(self):
        spec = random_model(LatticeSpec(1, 4), 2, 0.05, seed=27)
        state = run_flow(spec)
        for key, op in state.interactions.items():
            if key.circumference >= 1:
                assert offdiag_norm(op.matrix) <= 1e-10

    def test_block_diagonal_entry_has_no_cross_terms_upstairs(self):
        # a block-diagonal potential embedded in a larger rectangle connects
        # nothing between that rectangle's vacuum and excited blocks
        spec = random_model(LatticeSpec(1, 3), 2, 0.05, seed=28)
        state = run_flow(spec)
        small = Rect((1,), (1,))
        big = Rect((2,), (1,))
        op = state.interactions.get(small)
        lifted = embed(op, big).matrix
        pp = projector_plus(big, 2).matrix
        pm = projector_minus(big, 2).matrix
        assert np.linalg.norm(pp @ lifted @ pm, 2) < 1e-12

    def test_norm_hypothesis_holds_at_small_t(self):
        spec = random_model(LatticeSpec(1, 5), 2, 0.05, seed=29)
        state = run_flow(spec)
        assert state.status == "completed"
        for r, worst in max_norm_by_circumference(state).items():
            if r >= 2:
                assert worst <= 0.05 ** ((r - 1) / 4)

    def test_norm_decay_violation_downgrades_status(self):
        # a unit-norm block-diagonal potential on a circumference-2 rectangle
        # survives the flow unchanged, far above the bound t^(1/4)
        v = np.diag([0.0] + [1.0] * 7).astype(complex)
        pots = [(Rect((2,), (1,)), v)]
        spec = ModelSpec(LatticeSpec(1, 3), SiteSpace(2), default_onsite(2), pots, 0.05, k_bar=2)
        state = run_flow(spec)
        assert state.status == "hypothesis-violated"
        assert state.failures == ["norm decay hypothesis violated at circumference 2: 1 > t^(1/4)"]
        report = verify_main_theorem(state)
        assert report.status == "hypothesis-violated"
        assert [c for c in report.failed_clauses if c.startswith("norm-decay")] == [
            f"norm-decay: circumference 2 norm 1 above bound {0.05 ** 0.25:.6g}"
        ]

    def test_vacuum_energy_cross_check(self):
        # the transformed vacuum energy Kt[0,0] is the original ground energy
        spec = random_model(LatticeSpec(1, 4), 2, 0.05, seed=30)
        report = verify_main_theorem(run_flow(spec))
        ground = np.linalg.eigvalsh(build_hamiltonian(spec).matrix)[0]
        assert abs(report.final["vacuum_energy"] - ground) < 1e-10

    def test_step_records_carry_generators(self):
        # non-skipped records carry a generator vector, skipped ones None
        full = random_model(LatticeSpec(1, 3), 2, 0.05, seed=31)
        spec = ModelSpec(full.lat, full.site, full.onsite_h, full.potentials[:1], full.t)
        state = run_flow(spec)
        assert any(rec.skipped for rec in state.history)
        assert any(not rec.skipped for rec in state.history)
        for rec in state.history:
            if rec.skipped:
                assert rec.generator is None
            else:
                dim = spec.M**rec.rect.n_sites
                assert rec.generator.shape == (dim,) and rec.generator[0] == 0

    def test_three_dimensional_lattice(self):
        spec = random_model(LatticeSpec(3, 2), 2, 0.02, seed=60)
        state = run_flow(spec, check_consistency="final")
        w0 = hermitian_spectrum(build_hamiltonian(spec))
        w1 = hermitian_spectrum(assemble_hamiltonian(state))
        assert np.max(np.abs(w0 - w1)) < 1e-8
        assert min(r.g_gap for r in state.history) >= 0.5
        kt = assemble_hamiltonian(state).matrix
        assert np.linalg.norm(kt[0, 1:]) <= 1e-10

    def test_longer_range_initial_data(self):
        # bounded-support interface: range-two potentials flow unchanged
        lat = LatticeSpec(1, 3)
        rng = np.random.default_rng(61)
        pots = []
        for J in [Rect((1,), (1,)), Rect((1,), (2,)), Rect((2,), (1,))]:
            dim = 2**J.n_sites
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            v = (raw + raw.conj().T) / 2
            v /= np.linalg.norm(v, 2)
            pots.append((J, v))
        spec = ModelSpec(
            lat, SiteSpace(2), default_onsite(2), pots, 0.05, k_bar=2
        )
        state = run_flow(spec)
        w0 = hermitian_spectrum(build_hamiltonian(spec))
        w1 = hermitian_spectrum(assemble_hamiltonian(state))
        assert np.max(np.abs(w0 - w1)) < 1e-8

    def test_negative_coupling_runs(self):
        with pytest.warns(UserWarning, match="negative coupling"):
            spec = random_model(LatticeSpec(1, 3), 2, -0.05, seed=62)
        state = run_flow(spec)
        assert state.status == "completed"
        w0 = hermitian_spectrum(build_hamiltonian(spec))
        w1 = hermitian_spectrum(assemble_hamiltonian(state))
        assert np.max(np.abs(w0 - w1)) < 1e-8


def assert_close(got, want, tol=1e-12):
    if isinstance(want, LocalOp):
        assert got.support == want.support
        got, want = got.matrix, want.matrix
    if isinstance(want, (float, list, np.ndarray)):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
        assert np.max(np.abs(got - want), initial=0.0) <= tol * scale
    else:
        assert got == want


class TestDensePathAgreement:
    @pytest.mark.parametrize("d, N, t", [(1, 6, 0.05), (3, 2, 0.02)])
    def test_flow_matches_dense_series(self, monkeypatch, d, N, t):
        spec = random_model(LatticeSpec(d, N), 2, t, seed=1)
        fast = run_flow(spec, check_consistency="every-step")
        monkeypatch.setattr(flow, "lie_schwinger_series", dense_step_series)
        dense = run_flow(spec, check_consistency="every-step")
        assert (fast.status, fast.failures) == (dense.status, dense.failures)
        assert len(fast.history) == len(dense.history)
        for a, b in zip(fast.history, dense.history):
            for f in dataclasses.fields(StepRecord):
                assert_close(getattr(a, f.name), getattr(b, f.name))
        assert fast.interactions.keys() == dense.interactions.keys()
        for key, op in dense.interactions.items():
            assert_close(fast.interactions.get(key), op)


class TestMapUpdateSkip:
    @pytest.mark.parametrize(
        "d, N, t", [(1, 10, 0.02), (2, 3, 0.02), (1, 8, 0.05), (3, 2, 0.02)]
    )
    def test_final_map_matches_no_skip_oracle(self, monkeypatch, d, N, t):
        # keys in insertion order and entry bits equal the map update that
        # rotates every target; at d=1 N=10 the skip leaves targets unbuilt
        spec = random_model(LatticeSpec(d, N), 2, t, seed=1)
        rotated = {flow: 0, oracles: 0}

        def counted(module):
            def rotate(op, J, x):
                rotated[module] += 1
                return rotation_delta(op, J, x)

            return rotate

        for module in rotated:
            monkeypatch.setattr(module, "rotation_delta", counted(module))
        fast = run_flow(spec, check_consistency="never")
        monkeypatch.setattr(flow, "_transform_map", oracles.no_skip_transform_map)
        full = run_flow(spec, check_consistency="never")
        assert list(fast.interactions) == list(full.interactions)
        for key, op in full.interactions.items():
            assert np.array_equal(fast.interactions[key].matrix, op.matrix)
        assert rotated[flow] <= rotated[oracles]
        if (d, N) == (1, 10):
            assert rotated[flow] < rotated[oracles]

    def test_keeps_target_within_twice_the_threshold(self):
        # a new target whose bound lies between the prune threshold and twice
        # it, and whose rotation is kept: the contributor is sigma_z on site 2
        # (x) the vacuum projector on site 3, and x turns site 2 alone, so
        # ||u y u^+ - y|| = 2 sin(theta) s against the bound
        # 4 sin(theta/2) sqrt(2) s: a ratio cos(theta/2)/sqrt(2) near 0.7
        J, key, target = Rect((1,), (1,)), Rect((1,), (2,)), Rect((2,), (1,))
        theta = 0.1
        x = np.array([0.0, theta, 0.0, 0.0], dtype=complex)
        scale = 1.8 * PRUNE_THRESHOLD / (4 * np.sin(theta / 2) * np.sqrt(2))
        contributor = LocalOp(key, scale * np.diag([1.0, 0.0, -1.0, 0.0]), 2)
        ops = SimpleNamespace(
            v1=LocalOp(J, np.zeros((4, 4)), 2),
            v_diag_total=LocalOp(J, np.diag([0.0, 1.0, 1.0, 2.0]), 2),
            generator=x,
        )
        bound = flow.rotation_delta_bound(x, float(np.linalg.norm(contributor.matrix)))
        assert PRUNE_THRESHOLD < bound <= 2 * PRUNE_THRESHOLD
        delta = rotation_delta(embed(contributor, target), J, x)
        assert op_norm(LocalOp(target, delta, 2)) > PRUNE_THRESHOLD
        new_map = flow._transform_map({key: contributor}, J, ops)
        assert list(new_map) == list(oracles.no_skip_transform_map({key: contributor}, J, ops))
        assert np.array_equal(new_map[target].matrix, delta)


class TestRegimes:
    def test_small_step(self):
        assert regime_of(Rect((2, 0), (1, 1)), Rect((8, 8), (1, 1))) == "R1"

    def test_large_step(self):
        assert regime_of(Rect((8, 7), (1, 1)), Rect((8, 8), (1, 1))) == "R3"

    def test_middle(self):
        assert regime_of(Rect((4, 4), (1, 1)), Rect((8, 8), (1, 1))) == "R2"

    def test_upper_tie_goes_large(self):
        # k = r - floor(r^(1/4)) belongs to the large regime
        assert regime_of(Rect((7, 7), (1, 1)), Rect((8, 8), (1, 1))) == "R3"
