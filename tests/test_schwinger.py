"""Single-step generator series, majorants, and truncation certificates."""

import dataclasses
import tracemalloc
from fractions import Fraction
from math import comb, fsum

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import brentq

from gapflow import flow
from gapflow.geometry import LatticeSpec, Rect
from gapflow.model import ModelSpec, default_onsite, initial_interactions, random_model
from gapflow.schwinger import (
    MAJORANT_A,
    STACK_TABLE_BYTES,
    GapError,
    RotationPlane,
    _rotation_border,
    _series_tail,
    assemble_g,
    border_delta,
    check_g_gap,
    generator_exponential,
    lie_schwinger_series,
    majorants,
    radius_lower_bound,
    rotation_border_norm,
    rotation_delta,
    rotation_plane,
    series_stack,
    stack_limit,
)
from gapflow.tensor import LocalOp, embed, hermitian_norm, offdiag_norm

from oracles import (
    LEG_PARAMS,
    STACK_PARAMS,
    adjoint_power,
    commutator,
    composition_sum_vj,
    dense_conjugation,
    dense_generator,
    dense_series_oracle,
    frozen_rotation_delta_norm,
    kron_embed,
    leg_case,
    offdiag_part,
    op_norm,
    random_hermitian_stack,
    series_span,
    stack_case,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

EDGE = Rect((1,), (1,))


def edge_model(t, v=None, seed=None):
    if v is None:
        if seed is None:
            v = np.kron(SX, SX)
        else:
            rng = np.random.default_rng(seed)
            raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            v = (raw + raw.conj().T) / 2
            v /= np.linalg.norm(v, 2)
    return ModelSpec(LatticeSpec(1, 2), 2, default_onsite(2), [(EDGE, v)], t)


def one_step(J, g, v1, t, j_max=12):
    """One step's series, run as a stack of one and handed to
    ``lie_schwinger_series``: what ``apply_step`` does for a step without
    stacked terms."""
    return lie_schwinger_series(series_stack([(J, g, v1)], t, j_max)[0])


def edge_series(t, v=None, seed=None, j_max=10):
    spec = edge_model(t, v=v, seed=seed)
    entries = initial_interactions(spec)
    g = assemble_g(EDGE, entries, t)
    v1 = entries[EDGE]
    return one_step(EDGE, g, v1, t, j_max=j_max), g, v1


class TestAssembleG:
    def test_unperturbed(self):
        spec = edge_model(0.0)
        g = assemble_g(EDGE, initial_interactions(spec), 0.0)
        assert g.matrix[0, 0] == 0.0
        assert np.allclose(g.matrix, np.diag([0.0, 1.0, 1.0, 2.0]))

    def test_first_edge_has_no_coupling_terms(self):
        # circumference-1 steps see only on-site terms, so the gap is exactly 1
        spec = edge_model(0.05)
        g = assemble_g(EDGE, initial_interactions(spec), 0.05)
        assert np.allclose(g.matrix, np.diag([0.0, 1.0, 1.0, 2.0]))
        assert check_g_gap(g.matrix) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_undiagonalized_inner_potential(self):
        spec = edge_model(0.05)
        entries = initial_interactions(spec)
        target = Rect((1,), (1,))
        entries[Rect((0,), (1,))] = LocalOp(Rect((0,), (1,)), np.diag([0.0, 1.0]), 2)
        # a strictly inner entry with off-block weight must be refused, also
        # a non-Hermitian one whose weight lies in the vacuum row alone
        inner = Rect((0,), (2,))
        for mat in (SX + np.diag([0.0, 1.0]), np.array([[0.0, 1.0], [0.0, 1.0]])):
            entries[inner] = LocalOp(inner, mat, 2)
            with pytest.raises(GapError, match="does not fix"):
                assemble_g(target, entries, 0.05)

    def test_rejects_any_vacuum_leak(self):
        # the series takes G e0 = e0 e0 exactly, so even a 1e-13 entry in an
        # inner entry's vacuum column, far below GP_MINUS_TOL, is refused
        entries = initial_interactions(edge_model(0.05))
        inner = Rect((0,), (2,))
        leaky = np.diag([0.0, 1.0]).astype(complex)
        leaky[1, 0] = leaky[0, 1] = 1e-13
        entries[inner] = LocalOp(inner, leaky, 2)
        with pytest.raises(GapError, match="does not fix"):
            assemble_g(EDGE, entries, 0.05)


class TestAdjointPower:
    def test_self_commutator_vanishes(self):
        a = np.kron(SX, SZ)
        assert np.linalg.norm(adjoint_power(a, a, 1), 2) < 1e-15

    def test_pauli_algebra(self):
        got = adjoint_power(SZ, SX, 1)
        assert np.allclose(got, 2j * SY)

    def test_second_power_against_expansion(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        got = adjoint_power(a, b, 2)
        direct = a @ a @ b - 2 * a @ b @ a + b @ a @ a
        assert np.linalg.norm(got - direct, 2) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            adjoint_power(np.eye(2), np.eye(4), 1)


def gapped_step(M, n_sites, e0, seed, levels=(0.5, 3.0)):
    """A random already-diagonal G that fixes the vacuum with energy e0 and
    has its excited block between ``levels`` above it (by default at least
    1/2 above), and a unit-norm Hermitian potential on the same rectangle."""
    rng = np.random.default_rng(seed)
    rect = Rect((n_sites - 1,), (1,))
    dim = M**n_sites
    raw = rng.standard_normal((dim - 1, dim - 1)) + 1j * rng.standard_normal((dim - 1, dim - 1))
    basis, _ = np.linalg.qr(raw)
    levels = e0 + rng.uniform(*levels, dim - 1)
    G = np.zeros((dim, dim), dtype=complex)
    G[0, 0] = e0
    G[1:, 1:] = basis @ np.diag(levels) @ basis.conj().T
    G = (G + G.conj().T) / 2
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    V = (raw + raw.conj().T) / 2
    V /= np.linalg.norm(V, 2)
    return rect, LocalOp(rect, G, M), LocalOp(rect, V, M)


def relative_gap(got, want):
    return np.linalg.norm(np.asarray(got) - np.asarray(want), 2) / max(
        1.0, np.linalg.norm(np.asarray(want), 2)
    )


RADIUS = radius_lower_bound(1.0)


def assert_matches_dense_oracle(rect, g, v1, e0, t, j_max):
    """Run the step series and check it against ``dense_series_oracle``."""
    ops = one_step(rect, g, v1, t, j_max=j_max)
    want = dense_series_oracle(g.matrix, v1.matrix, e0, t, j_max)
    assert len(ops.generators) == j_max
    for x, ref in zip(ops.generators, want["s_terms"]):
        assert relative_gap(dense_generator(x), ref) < 1e-12
    assert relative_gap(ops.v_diag_total.matrix, want["v_diag_total"]) < 1e-12
    assert abs(ops.od_residual - want["od_residual"]) < 1e-12
    assert abs(ops.step_defect - want["step_defect"]) < 1e-12
    # the series basis: each v_j, j >= 2, vanishes off
    # span(e0, V e0, x_r, V x_r : r < j), of dimension at most 2 j
    for j, vj in enumerate(want["v_terms"][1:], start=2):
        Q = series_span(ops.generators[: j - 1], v1)
        assert Q.shape[1] <= min(g.dim, 2 * j)
        off = vj - Q @ (Q.conj().T @ vj @ Q) @ Q.conj().T
        assert np.linalg.norm(off, 2) <= 1e-12 * max(1.0, np.linalg.norm(vj, 2))
    return ops


class TestSeries:
    def test_block_diagonal_input_passes_through(self):
        v = np.diag([0.3, -0.2, 0.5, 0.1])
        ops, g, v1 = edge_series(0.1, v=v)
        assert op_norm(dense_generator(ops.generator)) < 1e-15
        assert np.allclose(ops.v_diag_total.matrix, v)
        # t = 0.1 is outside the certified radius, so no tail; the step
        # stores its local operator exactly
        assert ops.tail_bound is None
        assert ops.step_defect == 0.0

    def test_first_generator_closed_form(self):
        # the flip-both potential couples only the vacuum to the doubly
        # excited state, two units up: amplitude 1/2, antisymmetric
        ops, *_ = edge_series(0.1)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 0] = 0.5
        expected[0, 3] = -0.5
        assert np.linalg.norm(dense_generator(ops.generators[0]) - expected, 2) < 1e-14

    def test_terms_match_composition_sum_oracle(self):
        # x_j = R (v_j e0) on the excited block, for R = (G' - e0)^-1 and
        # v_j the literal composition sum over the step's own S_r, r < j
        ops, g, v1 = edge_series(0.05, seed=7, j_max=8)
        G = g.matrix
        resolvent = np.linalg.inv(G[1:, 1:] - G[0, 0] * np.eye(G.shape[0] - 1))
        S = {r: dense_generator(x) for r, x in enumerate(ops.generators, start=1)}
        for j, x in enumerate(ops.generators, start=1):
            vj = composition_sum_vj(G, v1.matrix, S, j)
            assert x[0] == 0
            assert np.linalg.norm(x[1:] - resolvent @ vj[1:, 0]) < 1e-12 * max(
                1.0, np.linalg.norm(x)
            )

    def test_generators_strictly_offdiagonal(self):
        ops, *_ = edge_series(0.05, seed=8)
        for x in ops.generators:
            sj = dense_generator(x)
            assert np.linalg.norm(sj - offdiag_part(sj), 2) < 1e-15

    def test_anti_hermitian_total(self):
        ops, *_ = edge_series(0.05, seed=9)
        s = dense_generator(ops.generator)
        assert np.linalg.norm(s + s.conj().T, 2) < 1e-12
        # the step generator is the t-weighted sum of its orders
        s_terms = [dense_generator(x) for x in ops.generators]
        total = sum(0.05**j * sj for j, sj in enumerate(s_terms, start=1))
        assert np.linalg.norm(s - total, 2) < 1e-15

    def test_generator_norm_vs_term_norm(self):
        # each S_j against the dense oracle's v_j
        ops, g, v1 = edge_series(0.05, seed=10)
        assert ops.g_gap >= 0.5
        want = dense_series_oracle(g.matrix, v1.matrix, ops.e0, 0.05, len(ops.generators))
        for x, vj in zip(ops.generators, want["v_terms"]):
            assert np.linalg.norm(dense_generator(x), 2) <= 4 * np.linalg.norm(vj, 2) + 1e-14

    def test_conjugation_block_diagonalizes(self):
        # within the tail where it is certified (t = 0.002), within the
        # measured step defect elsewhere
        for t in (0.002, 0.02, 0.05):
            ops, g, v1 = edge_series(t, seed=11, j_max=12)
            assert ops.tail_certified == (t < radius_lower_bound(ops.v1_norm))
            u = expm(dense_generator(ops.generator))
            conj = u @ (g.matrix + t * v1.matrix) @ u.conj().T
            bound = t * ops.tail_bound if ops.tail_certified else ops.step_defect
            assert offdiag_norm(conj) <= bound + 1e-13

    def test_spectrum_preserved(self):
        # the conjugated local operator, from the rotation kernel, keeps the
        # spectrum of L = G + t V
        t = 0.05
        ops, g, v1 = edge_series(t, seed=12)
        local = g.matrix + t * v1.matrix
        conj = local + rotation_delta(LocalOp(EDGE, local, 2), EDGE, ops.plane)
        drift = np.max(np.abs(np.linalg.eigvalsh(conj) - np.linalg.eigvalsh(local)))
        assert drift < 1e-10

    def test_solve_budget(self, monkeypatch):
        # one series step makes three O(n^3) solves: the eigenvalues of G's
        # excited block (the gap), the resolvent's inverse and the
        # eigenvalues of v1 (its norm), and no other solve. A stack of steps
        # with n <= 2 j_max + 1 makes the first two once for the whole stack
        # and one norm solve per entry
        rect, g, v1 = gapped_step(2, 6, 0.0, seed=4)
        steps = [gapped_step(2, 4, 0.0, s) for s in (1, 2, 3)]
        calls, dims = [], [g.dim]
        for name in ("eigvalsh", "eigh", "inv", "svd"):
            real = getattr(np.linalg, name)

            def counted(a, *args, _name=name, _real=real, **kwargs):
                if np.shape(a)[-1] >= dims[-1] - 1:
                    calls.append((_name, np.shape(a)[:-2]))
                return _real(a, *args, **kwargs)

            # np.linalg.norm(a, 2) reaches svd through numpy's own module
            for module in {np.linalg, getattr(np.linalg, "_linalg", np.linalg)}:
                monkeypatch.setattr(module, name, counted)

        one_step(rect, g, LocalOp(rect, v1.matrix, 2), 0.5 * RADIUS, j_max=12)
        assert sorted(calls) == [("eigvalsh", ()), ("eigvalsh", (1,)), ("inv", (1,))]

        dims.append(steps[0][1].dim)
        calls.clear()
        series_stack(steps, 0.5 * RADIUS, j_max=12)
        assert sorted(calls) == [
            ("eigvalsh", ()),
            ("eigvalsh", ()),
            ("eigvalsh", ()),
            ("eigvalsh", (3,)),
            ("inv", (3,)),
        ]

    @pytest.mark.parametrize("M, n_sites, j_max", [(2, 2, 8), (2, 4, 12), (3, 2, 4)])
    def test_stack_matches_each_step_alone(self, M, n_sites, j_max):
        # stacked steps agree with the same steps run as stacks of one
        steps = [
            gapped_step(M, n_sites, e0, seed) for e0, seed in ((0.0, 1), (-0.3, 2), (0.4, 3))
        ]
        assert stack_limit(steps[0][1].dim, j_max) >= len(steps)
        t = 0.5 * RADIUS
        for got, step in zip(series_stack(steps, t, j_max), steps):
            want = series_stack([step], t, j_max)[0]
            for field in dataclasses.fields(want):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if isinstance(b, LocalOp):
                    a, b = a.matrix, b.matrix
                if isinstance(b, RotationPlane):
                    a, b = (np.concatenate([x.basis, x.p, [[x.bound_factor] * 2]]) for x in (a, b))
                if isinstance(b, (float, list, np.ndarray)):
                    a, b = np.asarray(a), np.asarray(b)
                    assert a.shape == b.shape, field.name
                    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
                    assert np.max(np.abs(a - b), initial=0.0) <= 1e-13 * scale, field.name
                else:
                    assert a is b or a == b, field.name

    def test_stack_limit(self):
        # steps wider than 2 j_max + 1 run alone; narrower ones share runs
        # within the chain-table budget
        assert stack_limit(26, 12) == 1
        assert stack_limit(25, 12) == STACK_TABLE_BYTES // (16 * 13**2 * 25**2)
        assert stack_limit(4, 12) > stack_limit(16, 12) > 1
        small, big = gapped_step(2, 2, 0.0, 1), gapped_step(2, 3, 0.0, 1)
        with pytest.raises(ValueError, match="one dimension"):
            series_stack([small, big], 0.01)

    @pytest.mark.parametrize("side", ["column", "row"])
    def test_refuses_g_that_moves_the_vacuum(self, side):
        # the series takes G e0 = e0 e0 exactly, so a G whose vacuum column
        # (or row) has norm 1e-3 is refused as assemble_g refuses it, before
        # any gap or residual is reported
        rect, g, v1 = gapped_step(2, 4, 0.3, seed=21)
        leak = np.zeros(g.dim, dtype=complex)
        leak[1:] = np.random.default_rng(5).standard_normal(g.dim - 1)
        leak *= 1e-3 / np.linalg.norm(leak)
        mat = g.matrix.copy()
        if side == "column":
            mat[:, 0] += leak
        else:
            mat[0, :] += leak
        with pytest.raises(GapError, match="does not fix the vacuum"):
            series_stack([(rect, LocalOp(rect, mat, 2), v1)], 0.001, j_max=8)

    def test_transformed_norm_within_factor_two(self):
        # inside the certified region the transformed potential stays small
        t = 0.4 * radius_lower_bound(1.0)
        ops, *_ = edge_series(t, seed=13, j_max=8)
        assert ops.tail_certified
        assert op_norm(ops.v_diag_total) <= 2 * ops.v1_norm

    def test_higher_generator_orders_quadratic(self):
        # ||sum_{j>=2} t^j S_j|| <= C t^2 ||v1||^2; C measured once over 40
        # seeds x 3 couplings (max ratio 0.551), frozen with headroom
        C_REF = 2.0
        for seed in range(20):
            t = 0.05
            ops, *_ = edge_series(t, seed=seed, j_max=10)
            s_terms = [dense_generator(x) for x in ops.generators]
            rest = sum(t**j * s_terms[j - 1] for j in range(2, len(s_terms) + 1))
            assert np.linalg.norm(rest, 2) <= C_REF * t**2 * ops.v1_norm**2

    def test_diverging_coupling_fails_truncation(self):
        # at t = 3 the series diverges: no tail is certified, and the flow
        # aborts on the measured step defect, not on the gap
        ops, *_ = edge_series(3.0, seed=14, j_max=12)
        assert ops.tail_bound is None
        assert ops.step_defect == pytest.approx(346.4, rel=1e-3)
        with pytest.raises(RuntimeError, match=r"^truncation: step defect 346 at step") as err:
            flow.run_flow(edge_model(3.0, seed=14), j_max=12)
        assert not isinstance(err.value, GapError)


    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]),
        e0=st.floats(-1.0, 1.0),
        t=st.one_of(st.just(0.0), st.floats(-0.9, 0.9)),
        j_max=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_oracle(self, shape, e0, t, j_max, seed):
        # t is drawn in units of the certified radius, so every draw has a
        # tail certificate; the series itself does not depend on t
        M, n_sites = shape
        rect, g, v1 = gapped_step(M, n_sites, e0, seed)
        assert_matches_dense_oracle(rect, g, v1, e0, t * RADIUS, j_max)

    @pytest.mark.parametrize("M, n_sites, j_max", [(2, 6, 8), (2, 6, 12), (3, 4, 12)])
    def test_unsaturated_basis_matches_dense_oracle(self, M, n_sites, j_max):
        # the series basis stays narrower than the support (D < n)
        rect, g, v1 = gapped_step(M, n_sites, -0.4, seed=j_max)
        ops = assert_matches_dense_oracle(rect, g, v1, -0.4, 0.5 * RADIUS, j_max)
        assert series_span(ops.generators[:-1], v1).shape[1] == 2 * j_max < g.dim

    @pytest.mark.parametrize("j_max", [1, 2])
    def test_shortest_series_match_dense_oracle(self, j_max):
        # the chain table holds no order above the first at j_max = 1, one
        # at 2
        rect, g, v1 = gapped_step(2, 3, 0.2, seed=30 + j_max)
        assert_matches_dense_oracle(rect, g, v1, 0.2, 0.5 * RADIUS, j_max)

    def test_excited_block_below_vacuum_matches_dense_oracle(self):
        # a forced step: every excited level lies 1/2 to 3 below e0, so the
        # gap is negative while G' - e0 stays invertible
        rect, g, v1 = gapped_step(2, 4, 0.1, seed=23, levels=(-3.0, -0.5))
        with pytest.warns(UserWarning, match="gap degradation"):
            ops = assert_matches_dense_oracle(rect, g, v1, 0.1, 0.5 * RADIUS, 8)
        assert ops.g_gap == check_g_gap(g.matrix)
        assert -3.0 <= ops.g_gap <= -0.5

    def test_peak_memory_at_dim_256(self):
        # the chain table holds D x D coordinates with D <= 2 j_max + 1, so one
        # call at n = 256 and j_max = 12 peaks near 3.4 MiB of new
        # allocations, three n x n buffers
        rect, g, v1 = gapped_step(2, 8, 0.0, seed=3)
        tracemalloc.start()
        try:
            one_step(rect, g, v1, 0.5 * RADIUS, j_max=12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_borders_vanish_off_the_generator_span(self):
        # P v_j P = 0 for P the projection off span(e0, x_1, .., x_{j-1}),
        # on the dense oracle's terms
        rect, g, v1 = gapped_step(2, 4, 0.0, seed=5)
        want = dense_series_oracle(g.matrix, v1.matrix, 0.0, 0.005, 8)
        e0 = np.eye(g.dim)[:, 0]
        for j in range(2, 9):
            xs = [s[:, 0] for s in want["s_terms"][: j - 1]]
            Q, _ = np.linalg.qr(np.column_stack([e0, *xs]))
            P = np.eye(Q.shape[0]) - Q @ Q.conj().T
            vj = want["v_terms"][j - 1]
            assert np.linalg.norm(P @ vj @ P, 2) < 1e-14 * np.linalg.norm(vj, 2)

    def test_s_norm_and_unitary(self):
        ops, *_ = edge_series(0.05, seed=15)
        s = dense_generator(ops.generator)
        assert ops.s_norm == pytest.approx(np.linalg.norm(s, 2), rel=1e-13)
        assert np.linalg.norm(generator_exponential(ops.generator) - expm(s), 2) < 1e-14


class TestStepDefect:
    @pytest.mark.parametrize(
        "d, N, t",
        [(1, 8, 0.05), (1, 8, 0.2), (3, 2, 0.02), (2, 3, 0.02), (2, 3, 0.1), (1, 6, 0.05)],
    )
    def test_bounded_by_tail_and_rounding(self, monkeypatch, d, N, t):
        # ||u L u^+ - (G + t v_diag)||_F <= sqrt(n) |t| tail + rounding on
        # every certified series step of a flow: the truncated orders, in
        # operator norm, widened to Frobenius, plus 1e-14 of ||L||_F. An
        # uncertified step is held to the tolerance by the truncation clause
        steps = []

        def series(group, *args, **kwargs):
            out = series_stack(group, *args, **kwargs)
            steps.extend(zip(group, out))
            return out

        monkeypatch.setattr(flow, "series_stack", series)
        state = flow.run_flow(
            random_model(LatticeSpec(d, N), 2, t, seed=1), check_consistency="never"
        )
        assert steps
        for (_, g, v1), ops in steps:
            if ops.tail_certified:
                local = g.matrix + t * v1.matrix
                bound = np.sqrt(ops.g.dim) * abs(t) * ops.tail_bound
                assert ops.step_defect <= bound + 1e-14 * np.linalg.norm(local)
            else:
                assert ops.step_defect <= state.tolerances.consistency


class TestGeneratorExponential:
    @pytest.mark.parametrize("theta", [0.0, 1e-9, 0.7, 1.3])
    @pytest.mark.parametrize("M", [2, 3])
    def test_matches_expm(self, theta, M):
        rng = np.random.default_rng(int(theta * 1e3) + M)
        dim = M**2
        x = np.zeros(dim, dtype=complex)
        x[1:] = rng.standard_normal(dim - 1) + 1j * rng.standard_normal(dim - 1)
        x *= theta / np.linalg.norm(x)
        s = np.zeros((dim, dim), dtype=complex)
        s[:, 0] = x
        s[0, :] -= x.conj()
        u = generator_exponential(x)
        assert np.linalg.norm(u - expm(s), 2) < 1e-15
        assert np.linalg.norm(u @ u.conj().T - np.eye(dim), 2) < 1e-14

    def test_rejects_vacuum_component(self):
        with pytest.raises(ValueError, match="orthogonal to the vacuum"):
            generator_exponential(np.array([0.1, 0.2, 0.0, 0.0]))


# per dimension: a support T and step rectangles J at a corner of T (its
# legs interleaved with the rest for d >= 2), inside T, and J = T
ROTATION_CASES = {
    1: (Rect((3,), (1,)), {"corner": Rect((1,), (1,)), "inside": Rect((1,), (2,))}),
    2: (Rect((2, 1), (1, 1)), {"corner": Rect((2, 0), (1, 2)), "inside": Rect((0, 1), (2, 1))}),
    3: (
        Rect((2, 1, 0), (1, 1, 1)),
        {"corner": Rect((1, 0, 0), (1, 1, 1)), "inside": Rect((0, 1, 0), (2, 1, 1))},
    ),
}


class TestRotationDelta:
    @pytest.mark.parametrize("theta", [0.0, 1e-9, 0.7, 1.3])
    @pytest.mark.parametrize("place", ["corner", "inside", "whole"])
    @pytest.mark.parametrize("M", [2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_dense_conjugation(self, d, M, place, theta):
        T, inner = ROTATION_CASES[d]
        J = T if place == "whole" else inner[place]
        rng = np.random.default_rng(100 * d + 10 * M + int(theta * 10))
        dim, dim_j = M**T.n_sites, M**J.n_sites
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = LocalOp(T, (raw + raw.conj().T) / 2, M)
        x = np.zeros(dim_j, dtype=complex)
        x[1:] = rng.standard_normal(dim_j - 1) + 1j * rng.standard_normal(dim_j - 1)
        x *= theta / np.linalg.norm(x)
        delta = rotation_delta(a, J, rotation_plane(x))
        ref = dense_conjugation(a, J, generator_exponential(x)) - a.matrix
        assert np.linalg.norm(delta - ref) <= 1e-12 * np.linalg.norm(a.matrix)
        assert np.array_equal(delta, delta.conj().T)
        if theta == 0.0:
            assert not delta.any()

    def test_rejects_outside_rectangle(self):
        a = LocalOp(EDGE, np.eye(4), 2)
        with pytest.raises(ValueError, match="not contained"):
            rotation_delta(a, Rect((1,), (2,)), rotation_plane(np.zeros(4)))

    @pytest.mark.parametrize("d, N, M, place", LEG_PARAMS)
    def test_tiny_angle_matches_commutator(self, d, N, M, place):
        # at theta = 1e-200 the squares of x's entries underflow, but the
        # delta is still [S, A] to first order (the O(theta^2) rest is far
        # below rounding); both sides are compared after scaling by 1/theta
        theta = 1e-200
        T, J = leg_case(d, N, place)
        rng = np.random.default_rng(7 * d + N + 10 * M)
        dim, dim_j = M**T.n_sites, M**J.n_sites
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = LocalOp(T, (raw + raw.conj().T) / 2, M)
        x = np.zeros(dim_j, dtype=complex)
        x[1:] = rng.standard_normal(dim_j - 1) + 1j * rng.standard_normal(dim_j - 1)
        x *= theta / np.linalg.norm(x)
        s = kron_embed(LocalOp(J, dense_generator(x), M), T).matrix
        want = commutator(s, a.matrix) / theta
        got = rotation_delta(a, J, rotation_plane(x)) / theta
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("theta", [0.0, 1e-9, 0.7, 1.3])
    @pytest.mark.parametrize("d, N, M, place", LEG_PARAMS)
    def test_bits_match_frozen_kernel(self, d, N, M, place, theta):
        # the kernel builds its conjugate transposes with tensor.adjoint and
        # adds in place; IEEE addition commutes, so every bit is the one the
        # copy-and-stride formula gives
        T, J = leg_case(d, N, place)
        rng = np.random.default_rng(3 * d + N + 10 * M + int(100 * theta))
        dim, dim_j = M**T.n_sites, M**J.n_sites
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = LocalOp(T, (raw + raw.conj().T) / 2, M)
        x = np.zeros(dim_j, dtype=complex)
        x[1:] = rng.standard_normal(dim_j - 1) + 1j * rng.standard_normal(dim_j - 1)
        x *= theta / np.linalg.norm(x)
        want_delta, want_norm = frozen_rotation_delta_norm(a, J, x)
        plane = rotation_plane(x)
        c, nrm = rotation_border_norm(a, J, plane)
        assert np.array_equal(rotation_delta(a, J, plane), want_delta)
        assert np.array_equal(border_delta(T, M, J, plane.p, c), want_delta)
        assert nrm == want_norm


class TestRotationBorderNorm:
    @pytest.mark.parametrize("theta", [0.0, 1e-9, 0.3, np.pi / 2])
    @pytest.mark.parametrize("d, N, M, place", LEG_PARAMS)
    def test_matches_dense_norms(self, d, N, M, place, theta):
        # the norm of u A u^+ - A from its low-rank border, against the
        # eigenvalue norm of the same dense delta and the SVD norm of the
        # kron-embedded dense conjugation, for a unit-norm A
        T, J = leg_case(d, N, place)
        rng = np.random.default_rng(7 * d + N + 10 * M + int(100 * theta))
        dim, dim_j = M**T.n_sites, M**J.n_sites
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        herm = (raw + raw.conj().T) / 2
        a = LocalOp(T, herm / np.linalg.norm(herm, 2), M)
        x = np.zeros(dim_j, dtype=complex)
        x[1:] = rng.standard_normal(dim_j - 1) + 1j * rng.standard_normal(dim_j - 1)
        x *= theta / np.linalg.norm(x)
        plane = rotation_plane(x)
        c, nrm = rotation_border_norm(a, J, plane)
        delta = border_delta(T, M, J, plane.p, c)
        assert np.array_equal(delta, rotation_delta(a, J, plane))
        svd = np.linalg.norm(dense_conjugation(a, J, generator_exponential(x)) - a.matrix, 2)
        for ref in (hermitian_norm(delta), svd):
            assert abs(nrm - ref) <= 1e-13 * ref + 1e-15
        if theta == 0.0:
            # P = 0, so B = I (x) P has rank zero and the norm is exactly 0
            assert nrm == 0.0


class TestStackedRotation:
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    @pytest.mark.parametrize("d, M, place, k", STACK_PARAMS)
    def test_slices_match_single_calls(self, d, M, place, k, theta):
        # the border, its norm and its dense delta of a stack of operators
        # are, slice by slice, the bits of the call on that operator alone
        T, J = stack_case(d, place)
        rng = np.random.default_rng(1000 * d + 100 * M + 10 * k + len(place))
        a = LocalOp(T, random_hermitian_stack(rng, k, M**T.n_sites), M)
        dim_j = M**J.n_sites
        x = np.zeros(dim_j, dtype=complex)
        x[1:] = rng.standard_normal(dim_j - 1) + 1j * rng.standard_normal(dim_j - 1)
        x *= theta / np.linalg.norm(x)
        plane = rotation_plane(x)
        c, norms = rotation_border_norm(a, J, plane)
        assert np.array_equal(c, _rotation_border(a, J, plane))
        assert norms.shape == (k,)
        delta = border_delta(T, M, J, plane.p, c)
        for i in range(k):
            single = LocalOp(T, a.matrix[i], M)
            c1, nrm = rotation_border_norm(single, J, plane)
            assert np.array_equal(c[i], c1)
            assert norms[i] == nrm
            assert np.array_equal(delta[i], border_delta(T, M, J, plane.p, c1))
            assert np.array_equal(delta[i], rotation_delta(single, J, plane))


class TestRotationDeltaBound:
    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from([p.values for p in LEG_PARAMS]),
        theta=st.floats(0.0, np.pi),
        worst=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # a theta whose square underflows, and a subnormal one
    @example(case=(1, 4, 2, "corner"), theta=7.121692753022683e-161, worst=True, seed=1)
    @example(case=(1, 4, 2, "corner"), theta=5e-324, worst=False, seed=0)
    def test_bounds_the_rotated_norm(self, case, theta, worst, seed):
        # ||u A u^+ - A|| <= 4 sin(theta/2) ||A|| for a random Hermitian A,
        # or for A = (v w^+ + w v^+) (x) I with v, w the eigenvectors of u
        # for e^{+-i theta}, where the left side is 2 sin(theta)
        d, N, M, place = case
        T, J = leg_case(d, N, place)
        rng = np.random.default_rng(seed)
        dim, dim_j = M**T.n_sites, M**J.n_sites
        x = np.zeros(dim_j, dtype=complex)
        x[1:] = rng.standard_normal(dim_j - 1) + 1j * rng.standard_normal(dim_j - 1)
        x /= np.linalg.norm(x)
        if worst:
            v, w = -1j * x, 1j * x
            v[0] = w[0] = 1.0
            local = (np.outer(v, w.conj()) + np.outer(w, v.conj())) / 2
            a = embed(LocalOp(J, local, M), T)
        else:
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            a = LocalOp(T, (raw + raw.conj().T) / 2, M)
        x *= theta
        plane = rotation_plane(x)
        delta = hermitian_norm(rotation_delta(a, J, plane))
        assert delta <= plane.bound_factor * hermitian_norm(a) * (1 + 1e-12)
        if worst:
            assert abs(delta - 2 * np.sin(theta)) <= 1e-12

    def test_closed_form(self):
        x = np.array([0.0, 0.6, 0.8j])
        assert rotation_plane(x).bound_factor * 2.5 == 10.0 * np.sin(0.5)
        assert rotation_plane(np.zeros(3)).bound_factor * 1.0 == 0.0


def majorant_equation(a):
    return (np.exp(8 * a) - 8 * a - 1) / a + np.exp(8 * a) - 2.0


# radius_lower_bound, B_{j_max+1} and tail(0.3 radius, j_max) as computed by
# the brentq-based constant and the two separate recurrences this module had
# before the constant was pinned
MAJORANTS_BEFORE_PIN = {
    (0.7, 6): ("0x1.10e9b83749236p-7", "0x1.f790fdf3b563bp+35", "0x1.6dc3e3d2b76c3p-16"),
    (1.0, 12): ("0x1.7e1401e6fffe5p-8", "0x1.a9ada44f42c3fp+82", "0x1.358be459fff9ap-27"),
    (0.0123, 20): ("0x1.e55d0ee786c18p-2", "0x1.c04cbe45b7df8p+7", "0x1.0033aefa23880p-48"),
    (3.5, 1): ("0x1.b4a926bedb6bdp-10", "0x1.06a5d885a795fp+9", "0x1.3ebc86da20ad0p-2"),
}


class TestMajorants:
    def test_constant_solves_its_equation(self):
        a = MAJORANT_A
        assert abs(majorant_equation(a)) < 1e-12

    def test_constant_is_the_brentq_root(self):
        root = brentq(majorant_equation, 1e-8, 1.0, xtol=1e-15, rtol=8.9e-16)
        assert MAJORANT_A == root
        # the sign change brackets the pinned value without brentq
        assert majorant_equation(MAJORANT_A - 1e-12) < 0 < majorant_equation(MAJORANT_A + 1e-12)

    @pytest.mark.parametrize("v1_norm, j_max", sorted(MAJORANTS_BEFORE_PIN))
    def test_series_bits_unchanged(self, v1_norm, j_max):
        b = majorants(v1_norm, j_max + 1)
        ref = [v1_norm]
        for j in range(2, j_max + 2):
            ref.append(sum(ref[j - l - 1] * ref[l - 1] for l in range(1, j)) / MAJORANT_A)
        assert b == ref
        radius, b_last, tail = (float.fromhex(h) for h in MAJORANTS_BEFORE_PIN[v1_norm, j_max])
        assert radius_lower_bound(v1_norm) == radius
        assert b[j_max] == b_last
        assert _series_tail(0.3 * radius, v1_norm, j_max) == tail
        # a longer list continues the same recurrence
        assert majorants(v1_norm, j_max + 4)[: j_max + 1] == b

    def test_recursion_base(self):
        b = majorants(0.7, 7)
        assert b[0] == 0.7
        assert b[1] == pytest.approx(0.7**2 / MAJORANT_A, rel=1e-14)

    def test_radius(self):
        assert radius_lower_bound(2.0) == pytest.approx(MAJORANT_A / 8.0, rel=1e-14)

    def test_taylor_coefficients_catalan(self):
        # generating-function oracle: j-th coefficient of the branch series
        # is Catalan(j-1) * B1^j / a^{j-1}
        for v1_norm in (0.3, 1.0, 2.5):
            b = majorants(v1_norm, 30)
            for j in range(1, 31):
                catalan = comb(2 * (j - 1), j - 1) // j
                closed = catalan * v1_norm**j / MAJORANT_A ** (j - 1)
                assert b[j - 1] == pytest.approx(closed, rel=1e-14)

    def test_tail_bounds_partial_sums(self):
        # the certified tail is sum_{j>j_max} t^{j-1} B_j
        # = B1 sum_{m>=j_max} Catalan(m) x^m for x = B1 t / a. The terms
        # come from exact Catalan numbers and the exact rational x, each
        # rounded once, and decrease; they run until one is below 1e-18 of
        # the shortest tail's sum. The certified tail may lie a few ulps
        # below the exact one, from the rounding in B_j
        j_maxes = (1, 2, 4, 8, 12, 20)
        for v1_norm in (0.3, 1.0, 2.5):
            for rho in (0.05, 0.3, 0.5, 0.9, 0.99):
                t = rho * radius_lower_bound(v1_norm)
                x = Fraction(v1_norm) * Fraction(t) / Fraction(MAJORANT_A)
                terms, catalan, num, den, shortest = [], 1, 1, 1, 0.0
                while True:
                    m = len(terms)
                    terms.append(catalan * num / den)
                    if m >= j_maxes[-1]:
                        shortest += terms[-1]
                        if terms[-1] < 1e-18 * shortest:
                            break
                    catalan = catalan * 2 * (2 * m + 1) // (m + 2)
                    num, den = num * x.numerator, den * x.denominator
                for j_max in j_maxes:
                    exact = v1_norm * fsum(terms[j_max:])
                    tail = _series_tail(t, v1_norm, j_max)
                    assert tail == pytest.approx(exact, rel=1e-13), (v1_norm, rho, j_max)

    def test_tail_outside_radius_uncertified(self):
        # at and outside the certified radius there is no tail, whatever the
        # sign of t; a vanishing v1 has a vanishing one at any coupling
        radius = radius_lower_bound(1.0)
        for t in (radius, 2 * radius, -2 * radius, 3.0, 1e30):
            assert _series_tail(t, 1.0, 6) is None
        assert _series_tail(-0.5 * radius, 1.0, 6) == _series_tail(0.5 * radius, 1.0, 6)
        assert _series_tail(3.0, 0.0, 6) == 0.0

    def test_tail_finite_near_radius(self):
        # slow geometric decay must not overflow the coefficient recursion
        t = 0.999 * radius_lower_bound(1.0)
        tail = _series_tail(t, 1.0, 12)
        assert np.isfinite(tail) and tail > 0
        assert tail >= t**12 * majorants(1.0, 13)[12]

    def test_terms_dominated_by_majorants(self):
        # the dense oracle's ||v_j|| against B_j for ||v_1|| = B_1
        for seed in (20, 21, 22):
            ops, g, v1 = edge_series(0.05, seed=seed, j_max=10)
            want = dense_series_oracle(g.matrix, v1.matrix, ops.e0, 0.05, 10)
            for nrm, bj in zip(want["term_norms"], majorants(ops.v1_norm, 10), strict=True):
                assert nrm <= bj * (1 + 1e-12)
