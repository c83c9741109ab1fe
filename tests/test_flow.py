"""Flow driver: step application, recombination, consistency, full runs."""

import dataclasses
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from gapflow import flow, schwinger, tensor
from gapflow.flow import (
    PRUNE_THRESHOLD,
    StepRecord,
    Tolerances,
    apply_step,
    assemble_hamiltonian,
    consistency_check,
    initial_state,
    max_norm_by_circumference,
    regime_of,
    run_flow,
    set_entry,
    verdict,
)
from gapflow.geometry import (
    LatticeSpec,
    Rect,
    all_rects,
    compare_step,
    enumerate_steps,
    step_sort_key,
)
from gapflow.model import ModelSpec, build_hamiltonian, default_onsite, random_model
from gapflow.schwinger import (
    GapError,
    StepOperators,
    assemble_g,
    generator_exponential,
    rotation_delta,
    rotation_plane,
)
from gapflow.tensor import (
    LocalOp,
    embed,
    hermitian_norm,
    hermitian_spectrum,
    offdiag_norm,
)
from gapflow.verify import verify_main_theorem

import oracles
from oracles import (
    dense_generator,
    dense_step_series,
    kron_embed,
    op_norm,
    projector_minus,
    projector_plus,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
HADAMARD = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]])


def sxsx_chain(N, t):
    lat = LatticeSpec(1, N)
    pots = [(Rect((1,), (q,)), np.kron(SX, SX)) for q in range(1, N)]
    return ModelSpec(lat, 2, default_onsite(2), pots, t)


def truncation_budget(ops, t):
    """What a step's truncation may leave off the block diagonal of a stored
    potential: its tail where certified, else its measured step defect
    (which is in units of the local operator) over |t|; 0 for a skipped
    step."""
    if ops is None:
        return 0.0
    return ops.tail_bound if ops.tail_certified else ops.step_defect / abs(t)


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
        "mat, normed",
        [
            # Frobenius norm just below the threshold: pruned without a norm
            pytest.param(np.diag([1 - 1e-9, 0, 0, 0]), False, id="below threshold"),
            # just above it, a column norm above the threshold keeps without
            # a norm; with every column norm below it the norm prunes
            pytest.param(
                np.diag([0.5 + 1e-9, 0.5, 0.5, 0.5]), True, id="above threshold, spread"
            ),
            pytest.param(np.diag([1 + 1e-9, 0, 0, 0]), False, id="above threshold, rank one"),
            # just below sqrt(n) times the threshold the norm prunes; just
            # above it the entry is kept by the Frobenius norm
            pytest.param(np.diag([1 - 1e-9] * 4), True, id="below sqrt(n) bound"),
            pytest.param(np.diag([1 + 1e-9] * 4), False, id="above sqrt(n) bound"),
            # when all three bounds straddle the threshold the entry's own
            # (Hermitian) norm decides
            pytest.param((1 + 1e-9) / 4 * np.ones((4, 4)), True, id="straddled, above"),
            pytest.param((1 - 1e-9) / 2 * HADAMARD, True, id="straddled, below"),
            # a non-Hermitian entry is no potential: where the bounds leave
            # the decision open (here each column norm is half of ||A||), its
            # norm refuses it
            pytest.param(
                (1 + 1e-9) / 2 * np.outer([1, 0, 0, 0], [1, 1, 1, 1]),
                True,
                id="straddled, one row",
            ),
        ],
    )
    def test_prune_bounds(self, monkeypatch, mat, normed):
        edge = Rect((1,), (1,))
        op = LocalOp(edge, PRUNE_THRESHOLD * mat, 2)
        keep = np.linalg.norm(op.matrix, 2) > PRUNE_THRESHOLD
        calls = []
        monkeypatch.setattr(
            tensor, "hermitian_norm", lambda a: calls.append(1) or hermitian_norm(a)
        )
        imap = {}
        if np.array_equal(mat, mat.conj().T):
            set_entry(imap, edge, op)
            assert (edge in imap) == keep
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                set_entry(imap, edge, op)
        assert bool(calls) == normed

    @pytest.mark.parametrize("dim", [4, 16, 64])
    @pytest.mark.parametrize("rank", ["one", "full"])
    @pytest.mark.parametrize("hermitian", [True, False])
    def test_prune_agrees_with_svd_at_threshold(self, dim, rank, hermitian):
        # matrices scaled to just above and just below the threshold are
        # kept or dropped exactly as the SVD rule decides; a non-Hermitian
        # one is either decided by the bounds or refused by its norm
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
                try:
                    set_entry(imap, rect, op)
                except ValueError as exc:
                    assert not hermitian and "not Hermitian" in str(exc)
                    continue
                assert (rect in imap) == (np.linalg.norm(op.matrix, 2) > PRUNE_THRESHOLD)

    def test_stored_entries_are_read_only(self):
        # the cached norms, the maps that share an entry and the expander's
        # memo rely on entries never being mutated: an in-place write into
        # one, after the flow, is refused
        state = run_flow(random_model(LatticeSpec(1, 4), 2, 0.05, seed=1))
        entries = [*state.interactions.values(), *state.initial_map.values()]
        entries += [rec.v_diag_total for rec in state.history if not rec.skipped]
        for op in entries:
            with pytest.raises(ValueError, match="read-only"):
                op.matrix[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                op.matrix *= 2.0


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
        spec = ModelSpec(lat, 2, default_onsite(2), [(Rect((1,), (1,)), v)], 0.1)
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
                assert offdiag_norm(entry.matrix) <= truncation_budget(ops, spec.t) + 1e-13

    def test_monotone_diagonalization(self):
        # every entry at or before the current step stays block-diagonal
        # within the accumulated truncation budget, at every moment
        spec = random_model(LatticeSpec(1, 4), 2, 0.05, seed=32)
        state = initial_state(spec)
        budget = 0.0
        for J in enumerate_steps(spec.lat):
            state, ops = apply_step(state)
            budget += truncation_budget(ops, spec.t) + 1e-13
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


# the StepRecord fields a series step copies from its StepOperators
RECORD_SERIES_FIELDS = [f.name for f in dataclasses.fields(StepRecord) if f.name != "residual"]


class TestRecordSeriesContract:
    def test_record_fields_name_series_fields(self):
        # every record field but the residual is a series field of the same name
        series_fields = {f.name for f in dataclasses.fields(StepOperators)}
        assert set(RECORD_SERIES_FIELDS) <= series_fields

    @pytest.mark.parametrize("d, N, t", [(1, 6, 0.05), (3, 2, 0.02)])
    def test_record_holds_its_judged_series(self, monkeypatch, d, N, t):
        # each series step's record holds its StepOperators' values, bit
        # for bit, stacked steps and stacks of one alike
        judged = []
        real = flow.apply_step

        def apply(state, *args, **kwargs):
            new, ops = real(state, *args, **kwargs)
            judged.append((new.history[-1], ops))
            return new, ops

        monkeypatch.setattr(flow, "apply_step", apply)
        run_flow(random_model(LatticeSpec(d, N), 2, t, seed=1), check_consistency="never")
        series = [(rec, ops) for rec, ops in judged if ops is not None]
        assert series
        for rec, ops in series:
            for name in RECORD_SERIES_FIELDS:
                got, want = getattr(rec, name), getattr(ops, name)
                if isinstance(want, LocalOp):
                    got, want = got.matrix, want.matrix
                if isinstance(want, np.ndarray):
                    assert np.array_equal(got, want), name
                else:
                    assert got == want, name


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
            state, _ = apply_step(state)
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
            state, ops = apply_step(state)
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

    @pytest.mark.parametrize(
        "d, N, t",
        [(1, 8, 0.05), (1, 8, 0.2), (2, 3, 0.1), (3, 2, 0.02), (1, 6, 0.05)],
    )
    def test_every_g_fixes_the_vacuum_exactly(self, monkeypatch, d, N, t):
        # an entry strictly inside a step rectangle was stored by its own,
        # earlier step as a block-diagonal v_diag_total, so every G the flow
        # assembles has its vacuum row and column exactly zero off the
        # diagonal; assemble_g's one vacuum check relies on this
        seen = []

        def checked(J, interactions, t):
            g = assemble_g(J, interactions, t)
            seen.append(offdiag_norm(g.matrix))
            return g

        monkeypatch.setattr(flow, "assemble_g", checked)
        spec = random_model(LatticeSpec(d, N), 2, t, seed=1)
        state = run_flow(spec, check_consistency="never", force=True)
        assert len(seen) >= len(state.history)
        assert seen == [0.0] * len(seen)

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
        spec = ModelSpec(LatticeSpec(1, 3), 2, default_onsite(2), pots, 0.05, k_bar=2)
        state = run_flow(spec)
        assert state.status == "hypothesis-violated"
        clause = f"norm-decay: circumference 2 norm 1 above bound {0.05 ** 0.25:.6g}"
        assert state.failures == [clause]
        report = verify_main_theorem(state)
        assert report["status"] == "hypothesis-violated"
        assert [c for c in report["failed_clauses"] if c.startswith("norm-decay")] == [clause]

    def test_gap_slack_moves_the_step_gap_abort(self):
        # block-diagonal potentials lowering every excited level put the
        # gap of the step on Rect((2,), (1,)) at 0.4996: under the default
        # slack the flow aborts there, under a slack of 1e-3 it completes
        # and the report, which judges the same gap, has no step-gap clause
        v = np.diag([0.0, -1.0, -1.0, -1.0]).astype(complex)
        pots = [(Rect((1,), (q,)), v) for q in (1, 2)]
        spec = ModelSpec(LatticeSpec(1, 3), 2, default_onsite(2), pots, 0.2502)
        with pytest.raises(GapError, match=r"0\.4996 .*inductive gap hypothesis"):
            run_flow(spec)
        state = run_flow(spec, tolerances=Tolerances(gap_slack=1e-3))
        assert 0.499 < min(rec.g_gap for rec in state.history) < 0.5
        report = verify_main_theorem(state)
        assert not [c for c in report["failed_clauses"] if c.startswith("step-gap")]

    def test_every_step_mode_checks_only_series_steps(self):
        # only the first edge carries a potential, so the later steps are
        # skipped: they make no oracle call and keep no residual, which
        # would be zero by construction
        pots = [(Rect((1,), (1,)), np.kron(SX, SX))]
        spec = ModelSpec(LatticeSpec(1, 3), 2, default_onsite(2), pots, 0.05)
        with mock.patch.object(flow, "consistency_check", wraps=flow.consistency_check) as oracle:
            state = run_flow(spec, check_consistency="every-step")
        assert oracle.call_count == 1
        assert [rec.skipped for rec in state.history] == [False, True, True]
        assert [rec.residual is not None for rec in state.history] == [True, False, False]
        assert state.history[0].residual <= state.tolerances.consistency

    def test_verdict_of_failed_clauses(self):
        assert verdict([]) == "pass"
        assert verdict(["gap: transformed gap 0.4 below 1/2"]) == "fail"
        assert verdict(["step-gap: x", "norm-decay: y"]) == "hypothesis-violated"

    def test_vacuum_energy_cross_check(self):
        # the transformed vacuum energy Kt[0,0] is the original ground energy
        spec = random_model(LatticeSpec(1, 4), 2, 0.05, seed=30)
        report = verify_main_theorem(run_flow(spec))
        ground = np.linalg.eigvalsh(build_hamiltonian(spec).matrix)[0]
        assert abs(report["final"]["vacuum_energy"] - ground) < 1e-10

    def test_step_records_carry_generators(self):
        # non-skipped records carry a generator vector, skipped ones None
        full = random_model(LatticeSpec(1, 3), 2, 0.05, seed=31)
        spec = ModelSpec(full.lat, full.M, full.onsite_h, full.potentials[:1], full.t)
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
        state = run_flow(spec)
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
            lat, 2, default_onsite(2), pots, 0.05, k_bar=2
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


def assert_flow_matches_dense_path(spec, **kwargs):
    """``run_flow`` against the same flow with every series step computed by
    ``dense_step_series``: status, failures, every record field and every
    final entry within 1e-12."""
    fast = run_flow(spec, **kwargs)
    routed = []

    def dense_series(steps, t, j_max):
        routed.extend(J for J, _, _ in steps)
        return [
            dense_step_series(J, g, float(g.matrix[0, 0].real), v1, t, j_max)
            for J, g, v1 in steps
        ]

    with mock.patch.object(flow, "series_stack", dense_series):
        dense = run_flow(spec, **kwargs)
    # every series step, stacked (a level's stacks run by dimension) or
    # not, went through the dense path once
    assert routed
    assert sorted(routed, key=step_sort_key) == [
        rec.rect for rec in dense.history if not rec.skipped
    ]
    assert (fast.status, fast.failures) == (dense.status, dense.failures)
    assert len(fast.history) == len(dense.history)
    for a, b in zip(fast.history, dense.history):
        for f in dataclasses.fields(StepRecord):
            assert_close(getattr(a, f.name), getattr(b, f.name))
    assert fast.interactions.keys() == dense.interactions.keys()
    for key, op in dense.interactions.items():
        assert_close(fast.interactions.get(key), op)


class TestDensePathAgreement:
    @pytest.mark.parametrize("d, N, t", [(1, 6, 0.05), (3, 2, 0.02)])
    def test_flow_matches_dense_series(self, d, N, t):
        spec = random_model(LatticeSpec(d, N), 2, t, seed=1)
        assert_flow_matches_dense_path(spec, check_consistency="every-step")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_flows_match_dense_series(self, data):
        # potentials on a random non-empty subset of the edges, so skipped
        # and stacked steps share levels, over a non-default on-site term
        # whose vacuum column leaks anywhere in the range validation
        # accepts, which the model projects out
        d, N = data.draw(st.sampled_from([(1, 2), (1, 3), (2, 2)]), label="d, N")
        lat = LatticeSpec(d, N)
        edges = [J for J in all_rects(lat, min_circ=1) if J.circumference == 1]
        chosen = data.draw(st.lists(st.sampled_from(edges), min_size=1, unique=True))
        gap = data.draw(st.floats(1.0, 3.0), label="on-site gap")
        leak = data.draw(st.floats(0.0, 1e-10, exclude_max=True), label="leak")
        t = data.draw(st.floats(0.0, 0.05), label="t")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        onsite = np.diag([0.0, gap]).astype(complex)
        onsite[1, 0] = leak * np.exp(1j * rng.uniform(0, 2 * np.pi))
        onsite[0, 1] = np.conj(onsite[1, 0])
        pots = []
        for J in chosen:
            raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            v = (raw + raw.conj().T) / 2
            pots.append((J, v / np.linalg.norm(v, 2)))
        assert_flow_matches_dense_path(ModelSpec(lat, 2, onsite, pots, t))


class TestLevelStacks:
    def test_stepwise_flow_matches_run_flow(self, monkeypatch):
        # run_flow runs each level's series in stacks, and apply_step runs the
        # whole-lattice step, too wide to stack, as a stack of one; apply_step
        # alone runs every step as a stack of one
        spec = random_model(LatticeSpec(3, 2), 2, 0.02, seed=3)
        sizes = []
        real = flow.series_stack

        def counted(steps, *args, **kwargs):
            sizes.append(len(steps))
            return real(steps, *args, **kwargs)

        monkeypatch.setattr(flow, "series_stack", counted)
        stacked = run_flow(spec, check_consistency="never")
        assert sorted(sizes) == [1, 6, 12]
        state = initial_state(spec)
        for _ in enumerate_steps(spec.lat):
            state, _ = apply_step(state)
        for a, b in zip(state.history, stacked.history):
            for f in dataclasses.fields(StepRecord):
                assert_close(getattr(a, f.name), getattr(b, f.name), tol=1e-13)
        assert state.interactions.keys() == stacked.interactions.keys()
        for key, op in stacked.interactions.items():
            assert_close(state.interactions.get(key), op, tol=1e-13)

    def test_gap_failure_inside_a_stacked_level(self, monkeypatch):
        # d=1 N=4: the level of circumference 2 stacks the steps on [1,3] and
        # [2,4]. Block-diagonal potentials on [2,3] and [3,4] pull the gap of
        # [2,4] to 1 - 2t = 0.2: it warns and fails there, in flow order,
        # after [1,3] has been committed, and nothing later runs
        lat = LatticeSpec(1, 4)
        rng = np.random.default_rng(5)

        def weak(dim):
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            v = (raw + raw.conj().T) / 2
            return 0.1 * v / np.linalg.norm(v, 2)

        lower = np.diag([0.0, -1.0, -1.0, -1.0]).astype(complex)
        first, second = Rect((2,), (1,)), Rect((2,), (2,))
        pots = [
            (Rect((1,), (1,)), weak(4)),
            (Rect((1,), (2,)), lower),
            (Rect((1,), (3,)), lower),
            (first, weak(8)),
            (second, weak(8)),
        ]
        spec = ModelSpec(lat, 2, default_onsite(2), pots, 0.4, k_bar=2)
        events = []
        real_apply, real_stack = flow.apply_step, flow.series_stack

        def apply(state, *args, **kwargs):
            new, ops = real_apply(state, *args, **kwargs)
            events.append(("commit", new.history[-1].rect, len(caught), new))
            return new, ops

        def stack(steps, *args, **kwargs):
            events.append(("stack", tuple(s[0] for s in steps), len(caught), None))
            return real_stack(steps, *args, **kwargs)

        monkeypatch.setattr(flow, "apply_step", apply)
        monkeypatch.setattr(flow, "series_stack", stack)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(GapError, match=r"gap 0\.2 .* at step .*q=\(2,\)"):
                run_flow(spec)
        assert ("stack", (first, second), 0, None) in events
        # the last commit is [1,3]'s, made before any warning
        kind, rect, n_warned, state = events[-1]
        assert (kind, rect, n_warned) == ("commit", first, 0)
        assert state.history[-1].g_gap >= 0.5
        assert offdiag_norm(state.interactions[first].matrix) <= 1e-12
        assert [str(w.message) for w in caught] == [
            f"gap degradation on {second}: excited block starts 0.2 above the vacuum energy"
        ]


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
            def rotate(op, J, plane):
                rotated[module] += 1
                return rotation_delta(op, J, plane)

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
        plane = rotation_plane(x)
        ops = SimpleNamespace(
            v_diag_total=LocalOp(J, np.diag([0.0, 1.0, 1.0, 2.0]), 2),
            plane=plane,
        )
        bound = plane.bound_factor * float(np.linalg.norm(contributor.matrix))
        assert PRUNE_THRESHOLD < bound <= 2 * PRUNE_THRESHOLD
        delta = rotation_delta(embed(contributor, target), J, plane)
        assert op_norm(LocalOp(target, delta, 2)) > PRUNE_THRESHOLD
        new_map = flow._transform_map({key: contributor}, J, ops)
        assert list(new_map) == list(oracles.no_skip_transform_map({key: contributor}, J, ops))
        assert np.array_equal(new_map[target].matrix, delta)


class TestOnePlanePerStep:
    @pytest.mark.parametrize("d, N, t, series_steps", [(1, 8, 0.05, 28), (3, 2, 0.02, 19)])
    def test_rotation_plane_built_once_per_series_step(self, monkeypatch, d, N, t, series_steps):
        # the chain_d1n8 and cube_d3n2 flows at seed 7: the series builds
        # each step's plane once, for its own u L u^+ and for every target
        # of the map update
        built = []
        real = schwinger.rotation_plane
        monkeypatch.setattr(schwinger, "rotation_plane", lambda x: built.append(x) or real(x))
        state = run_flow(random_model(LatticeSpec(d, N), 2, t, seed=7))
        series = [rec for rec in state.history if not rec.skipped]
        assert len(built) == len(series) == series_steps
        for x, rec in zip(built, series):
            assert np.array_equal(x, rec.generator)


def truncation_clauses(state):
    return [clause for clause in state.failures if clause.startswith("truncation:")]


class TestTruncationClause:
    @pytest.mark.parametrize("mode", ["never", "auto"])
    def test_short_series_fails_in_every_mode(self, mode):
        # at j_max = 4 seven edge steps leave step defects above 1e-8, the
        # largest 1.56e-7 on the third edge; auto runs no oracle at N = 8,
        # so only this clause sees them, at any lattice size
        spec = random_model(LatticeSpec(1, 8), 2, 0.05, seed=1)
        with pytest.raises(RuntimeError) as err:
            run_flow(spec, j_max=4, check_consistency=mode)
        assert not isinstance(err.value, GapError)
        assert str(err.value) == (
            "truncation: step defect 4.18e-08 at step Rect(k=(1,), q=(1,)), "
            "above tolerance 1e-08"
        )
        state = run_flow(spec, j_max=4, check_consistency=mode, force=True)
        clauses = truncation_clauses(state)
        assert len(clauses) == 7
        assert "truncation: step defect 1.56e-07 at step Rect(k=(1,), q=(3,))" in clauses
        assert state.failures == clauses
        assert verify_main_theorem(state)["status"] == "fail"

    def test_scaled_rotation_plane_fails_only_this_clause(self, monkeypatch):
        # every step rotates through the plane of x (1 + 1e-6) instead of
        # its generator x: each rotation is still unitary, so the map keeps
        # the spectrum and every dense clause passes, and only the step
        # defects of five edge steps see the wrong rotation
        real = schwinger.rotation_plane
        monkeypatch.setattr(schwinger, "rotation_plane", lambda x: real(x * (1 + 1e-6)))
        spec = random_model(LatticeSpec(1, 6), 2, 0.05, seed=1)
        with pytest.raises(RuntimeError) as err:
            run_flow(spec)
        assert not isinstance(err.value, GapError)
        assert str(err.value) == (
            "truncation: step defect 4.39e-08 at step Rect(k=(1,), q=(1,)), "
            "above tolerance 1e-08"
        )
        state = run_flow(spec, force=True)
        clauses = truncation_clauses(state)
        assert len(clauses) == 5
        assert verify_main_theorem(state)["failed_clauses"] == state.failures == clauses

    def test_default_order_fails_at_large_coupling(self):
        # at t = 0.5 no step is certified and twelve orders leave a step
        # defect of 6.95e-5 on the third edge
        spec = random_model(LatticeSpec(1, 4), 2, 0.5, seed=1)
        with pytest.raises(RuntimeError, match="^truncation: step defect "):
            run_flow(spec)
        state = run_flow(spec, force=True)
        assert not any(rec.tail_certified for rec in state.history if not rec.skipped)
        assert "truncation: step defect 6.95e-05 at step Rect(k=(1,), q=(3,))" in (
            truncation_clauses(state)
        )

    def test_nan_fails_every_step_claim(self):
        rect = Rect((1,), (1,))
        nan = float("nan")
        rec = StepRecord(rect, g_gap=nan, e0=0.0, step_defect=nan, residual=nan)
        assert flow._step_failures(rec, Tolerances()) == [
            f"step-gap: gap nan below 1/2 at step {rect}",
            f"truncation: step defect nan at step {rect}",
            f"consistency: residual nan at step {rect}",
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        N=st.integers(2, 4),
        M=st.sampled_from([2, 3]),
        j_max=st.integers(1, 12),
        t=st.one_of(st.floats(-0.01, 0.01), st.floats(-0.5, 0.5)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_clause_iff_defect_above_tolerance(self, N, M, j_max, t, seed):
        # a step fails the clause exactly when its step defect exceeds the
        # tolerance; where its tail is certified the defect stays under
        # sqrt(n) |t| tail plus rounding
        steps = []
        real = schwinger.series_stack

        def series(group, *args, **kwargs):
            out = real(group, *args, **kwargs)
            steps.extend(zip(group, out))
            return out

        with warnings.catch_warnings(), mock.patch.object(flow, "series_stack", series):
            # a negative coupling's warning, and the gap warning of a forced run
            warnings.simplefilter("ignore")
            spec = random_model(LatticeSpec(1, N), M, t, seed=seed)
            state = run_flow(spec, j_max=j_max, check_consistency="never", force=True)
        tol = state.tolerances.consistency
        failing = [rec for rec in state.history if rec.step_defect > tol]
        assert truncation_clauses(state) == [
            f"truncation: step defect {rec.step_defect:.3g} at step {rec.rect}" for rec in failing
        ]
        assert [ops.rect for _, ops in steps] == [
            rec.rect for rec in state.history if not rec.skipped
        ]
        for (_, g, v1), ops in steps:
            if ops.tail_certified:
                local = g.matrix + t * v1.matrix
                bound = np.sqrt(ops.g.dim) * abs(t) * ops.tail_bound
                assert ops.step_defect <= bound + 1e-14 * np.linalg.norm(local)


class TestFlowMemory:
    @pytest.mark.parametrize(
        "d, N, t, mode", [(3, 2, 0.02, "every-step"), (1, 8, 0.05, "auto")]
    )
    def test_peak_in_whole_lattice_buffers(self, d, N, t, mode):
        # the cube_d3n2 and chain_d1n8 flows at seed 7 (n = 256): each
        # full-lattice buffer is released at its last use, so the traced
        # peak is about 7.0 and 6.4 n x n buffers (the face steps' stacked
        # series on the cube, the whole-lattice series on the chain);
        # holding the resolvent, the chain table and the step's operators
        # across the oracle read 10.3 on the cube
        spec = random_model(LatticeSpec(d, N), 2, t, seed=7)
        buffer = 16 * (2**spec.lat.n_sites) ** 2
        tracemalloc.start()
        try:
            run_flow(spec, check_consistency=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8.5 * buffer


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
