"""Single-step generator series, majorants, and truncation certificates."""

import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import brentq

from gapflow.geometry import LatticeSpec, Rect
from gapflow.model import ModelSpec, default_onsite, initial_interactions
from gapflow.schwinger import (
    GP_MINUS_TOL,
    MAJORANT_A,
    ConvergenceError,
    assemble_g,
    check_g_gap,
    generator_exponential,
    lie_schwinger_series,
    majorants,
    rotation_delta,
    rotation_delta_bound,
    rotation_delta_norm,
)
from gapflow.tensor import LocalOp, SiteSpace, embed, hermitian_norm, offdiag_norm, op_norm

from oracles import (
    LEG_PARAMS,
    adjoint_power,
    composition_sum_vj,
    dense_conjugation,
    dense_generator,
    dense_series_oracle,
    dense_terms,
    leg_case,
    offdiag_part,
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
    return ModelSpec(LatticeSpec(1, 2), SiteSpace(2), default_onsite(2), [(EDGE, v)], t)


def edge_series(t, v=None, seed=None, j_max=10):
    spec = edge_model(t, v=v, seed=seed)
    entries = initial_interactions(spec)
    g, e0 = assemble_g(EDGE, entries, t)
    v1 = entries[EDGE]
    return lie_schwinger_series(EDGE, g, e0, v1, t, j_max=j_max), g, e0, v1


class TestAssembleG:
    def test_unperturbed(self):
        spec = edge_model(0.0)
        g, e0 = assemble_g(EDGE, initial_interactions(spec), 0.0)
        assert e0 == 0.0
        assert np.allclose(g.matrix, np.diag([0.0, 1.0, 1.0, 2.0]))

    def test_first_edge_has_no_coupling_terms(self):
        # circumference-1 steps see only on-site terms, so the gap is exactly 1
        spec = edge_model(0.05)
        g, e0 = assemble_g(EDGE, initial_interactions(spec), 0.05)
        assert np.allclose(g.matrix, np.diag([0.0, 1.0, 1.0, 2.0]))
        assert check_g_gap(g, e0, EDGE) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_undiagonalized_inner_potential(self):
        spec = edge_model(0.05)
        entries = initial_interactions(spec)
        target = Rect((1,), (1,))
        bad = np.kron(SX, np.eye(2)) @ np.kron(np.eye(2), SX)
        entries[Rect((0,), (1,))] = LocalOp(Rect((0,), (1,)), np.diag([0.0, 1.0]), 2)
        # a strictly inner entry with off-block weight must be refused
        inner = Rect((0,), (2,))
        entries[inner] = LocalOp(inner, SX + np.diag([0.0, 1.0]), 2)
        with pytest.raises(Exception, match="not yet diagonalized|does not fix"):
            assemble_g(target, entries, 0.05)


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


RADIUS = majorants(1.0, 1).radius_lower_bound


def assert_matches_dense_oracle(rect, g, v1, e0, t, j_max):
    """Run the step series and check it against ``dense_series_oracle``."""
    ops = lie_schwinger_series(rect, g, e0, v1, t, j_max=j_max)
    want = dense_series_oracle(g.matrix, v1.matrix, e0, t, j_max)
    s_terms, v_terms = dense_terms(ops)
    assert len(s_terms) == len(v_terms) == len(ops.term_norms) == j_max
    for got, ref in zip(s_terms, want["s_terms"]):
        assert relative_gap(got, ref) < 1e-12
    for got, ref in zip(v_terms, want["v_terms"]):
        assert relative_gap(got, ref) < 1e-12
    for got, ref in zip(ops.term_norms, want["term_norms"]):
        assert abs(got - ref) < 1e-12 * max(1.0, ref)
    assert relative_gap(ops.v_diag_total.matrix, want["v_diag_total"]) < 1e-12
    assert abs(ops.od_residual - want["od_residual"]) < 1e-12
    assert abs(ops.spectrum_drift - want["spectrum_drift"]) < 1e-12
    # the stored basis is orthonormal, starts at e0 and spans every generator
    Q = ops.basis
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(Q.shape[1]), 2) < 1e-13
    assert np.array_equal(Q[:, 0], np.eye(Q.shape[0])[:, 0])
    assert Q.shape[1] <= min(Q.shape[0], 3 * j_max)
    for x in ops.generators[:-1]:
        assert np.linalg.norm(x - Q @ (Q.conj().T @ x)) <= 1e-13 * max(1.0, np.linalg.norm(x))
    return ops


class TestSeries:
    def test_block_diagonal_input_passes_through(self):
        v = np.diag([0.3, -0.2, 0.5, 0.1])
        ops, g, e0, v1 = edge_series(0.1, v=v)
        assert op_norm(dense_generator(ops.generator)) < 1e-15
        assert np.allclose(ops.v_diag_total.matrix, v)
        assert ops.tail_bound == 0.0 or ops.tail_certified

    def test_first_generator_closed_form(self):
        # the flip-both potential couples only the vacuum to the doubly
        # excited state, two units up: amplitude 1/2, antisymmetric
        ops, *_ = edge_series(0.1)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 0] = 0.5
        expected[0, 3] = -0.5
        assert np.linalg.norm(dense_terms(ops)[0][0] - expected, 2) < 1e-14

    def test_terms_match_composition_sum_oracle(self):
        ops, g, e0, v1 = edge_series(0.05, seed=7, j_max=8)
        s_terms, v_terms = dense_terms(ops)
        S = {r + 1: s for r, s in enumerate(s_terms)}
        for j in range(1, 9):
            expected = composition_sum_vj(g.matrix, v1.matrix, S, j)
            assert np.linalg.norm(expected - v_terms[j - 1], 2) < 1e-12

    def test_generators_strictly_offdiagonal(self):
        ops, *_ = edge_series(0.05, seed=8)
        for sj in dense_terms(ops)[0]:
            assert np.linalg.norm(sj - offdiag_part(sj), 2) < 1e-15

    def test_anti_hermitian_total(self):
        ops, *_ = edge_series(0.05, seed=9)
        s = dense_generator(ops.generator)
        assert np.linalg.norm(s + s.conj().T, 2) < 1e-12
        # the step generator is the t-weighted sum of its orders
        s_terms = dense_terms(ops)[0]
        total = sum(0.05**j * sj for j, sj in enumerate(s_terms, start=1))
        assert np.linalg.norm(s - total, 2) < 1e-15

    def test_generator_norm_vs_term_norm(self):
        ops, *_ = edge_series(0.05, seed=10)
        assert ops.gap >= 0.5
        for sj, vj in zip(*dense_terms(ops)):
            assert np.linalg.norm(sj, 2) <= 4 * np.linalg.norm(vj, 2) + 1e-14

    def test_conjugation_block_diagonalizes(self):
        for t in (0.02, 0.05):
            ops, g, e0, v1 = edge_series(t, seed=11, j_max=12)
            u = expm(dense_generator(ops.generator))
            conj = u @ (g.matrix + t * v1.matrix) @ u.conj().T
            assert offdiag_norm(conj) <= t * ops.tail_bound + 1e-13

    def test_spectrum_preserved(self):
        ops, g, e0, v1 = edge_series(0.05, seed=12)
        assert ops.spectrum_drift < 1e-10

    def test_transformed_norm_within_factor_two(self):
        # inside the certified region the transformed potential stays small
        maj = majorants(1.0, 8)
        t = 0.4 * maj.radius_lower_bound
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
            s_terms = dense_terms(ops)[0]
            rest = sum(t**j * s_terms[j - 1] for j in range(2, len(s_terms) + 1))
            assert np.linalg.norm(rest, 2) <= C_REF * t**2 * ops.v1_norm**2

    def test_diverging_coupling_raises(self):
        with pytest.raises(ConvergenceError, match="convergence"):
            edge_series(3.0, seed=14, j_max=12)


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
        assert ops.basis.shape[1] < g.dim

    @pytest.mark.parametrize("j_max", [1, 2])
    def test_shortest_series_match_dense_oracle(self, j_max):
        # the stacked term-norm solve gets no matrix at j_max = 1, one at 2
        rect, g, v1 = gapped_step(2, 3, 0.2, seed=30 + j_max)
        ops = assert_matches_dense_oracle(rect, g, v1, 0.2, 0.5 * RADIUS, j_max)
        assert len(ops.v_coords) == j_max - 1

    def test_excited_block_below_vacuum_matches_dense_oracle(self):
        # a forced step: every excited level lies 1/2 to 3 below e0, so the
        # gap is negative while G' - e0 stays invertible
        rect, g, v1 = gapped_step(2, 4, 0.1, seed=23, levels=(-3.0, -0.5))
        with pytest.warns(UserWarning, match="gap degradation"):
            ops = assert_matches_dense_oracle(rect, g, v1, 0.1, 0.5 * RADIUS, 8)
        assert ops.gap == check_g_gap(g, 0.1, rect)
        assert -3.0 <= ops.gap <= -0.5

    def test_vacuum_leak_matches_dense_oracle(self):
        # G e0 leaves the vacuum line by 5e-11, under the GP_MINUS_TOL that
        # assemble_g accepts; the series basis must carry that leak
        rect, g, v1 = gapped_step(2, 4, 0.3, seed=21)
        leak = np.random.default_rng(22).standard_normal(g.dim - 1)
        leak *= 5e-11 / np.linalg.norm(leak)
        G = g.matrix.copy()
        G[1:, 0] = leak
        G[0, 1:] = leak
        assert np.linalg.norm(G[1:, 0]) < GP_MINUS_TOL
        assert_matches_dense_oracle(rect, LocalOp(rect, G, 2), v1, 0.3, 0.5 * RADIUS, 8)

    def test_peak_memory_at_dim_256(self):
        # the chain table holds D x D coordinates with D <= 3 j_max, so one
        # call at n = 256 and j_max = 12 peaks near 11 MB of new allocations
        rect, g, v1 = gapped_step(2, 8, 0.0, seed=3)
        tracemalloc.start()
        try:
            lie_schwinger_series(rect, g, 0.0, v1, 0.5 * RADIUS, j_max=12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_borders_vanish_off_the_generator_span(self):
        # P v_j P = 0 for P the projection off span(e0, x_1, .., x_{j-1})
        rect, g, v1 = gapped_step(2, 4, 0.0, seed=5)
        ops = lie_schwinger_series(rect, g, 0.0, v1, 0.005, j_max=8)
        _, v_terms = dense_terms(ops)
        e0 = np.eye(g.dim)[:, 0]
        for j in range(2, 9):
            Q, _ = np.linalg.qr(np.column_stack([e0, *ops.generators[: j - 1]]))
            P = np.eye(Q.shape[0]) - Q @ Q.conj().T
            vj = v_terms[j - 1]
            assert np.linalg.norm(P @ vj @ P, 2) < 1e-14 * np.linalg.norm(vj, 2)

    def test_s_norm_and_unitary(self):
        ops, *_ = edge_series(0.05, seed=15)
        s = dense_generator(ops.generator)
        assert ops.s_norm == pytest.approx(np.linalg.norm(s, 2), rel=1e-13)
        assert np.linalg.norm(generator_exponential(ops.generator) - expm(s), 2) < 1e-14


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
        delta = rotation_delta(a, J, x)
        ref = dense_conjugation(a, J, generator_exponential(x)) - a.matrix
        assert np.linalg.norm(delta - ref) <= 1e-12 * np.linalg.norm(a.matrix)
        assert np.array_equal(delta, delta.conj().T)
        if theta == 0.0:
            assert not delta.any()

    def test_rejects_outside_rectangle(self):
        a = LocalOp(EDGE, np.eye(4), 2)
        with pytest.raises(ValueError, match="not contained"):
            rotation_delta(a, Rect((1,), (2,)), np.zeros(4))


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
        a = LocalOp(T, (raw + raw.conj().T) / 2, M)
        a.matrix /= np.linalg.norm(a.matrix, 2)
        x = np.zeros(dim_j, dtype=complex)
        x[1:] = rng.standard_normal(dim_j - 1) + 1j * rng.standard_normal(dim_j - 1)
        x *= theta / np.linalg.norm(x)
        delta, nrm = rotation_delta_norm(a, J, x)
        assert np.array_equal(delta, rotation_delta(a, J, x))
        svd = np.linalg.norm(dense_conjugation(a, J, generator_exponential(x)) - a.matrix, 2)
        for ref in (hermitian_norm(delta), svd):
            assert abs(nrm - ref) <= 1e-13 * ref + 1e-15
        if theta == 0.0:
            # P = 0, so B = I (x) P has rank zero and the norm is exactly 0
            assert nrm == 0.0


class TestRotationDeltaBound:
    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from([p.values for p in LEG_PARAMS]),
        theta=st.floats(0.0, np.pi),
        worst=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # a theta whose square underflows
    @example(case=(1, 4, 2, "corner"), theta=7.121692753022683e-161, worst=True, seed=1)
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
        delta = hermitian_norm(rotation_delta(a, J, x))
        assert delta <= rotation_delta_bound(x, hermitian_norm(a)) * (1 + 1e-12)
        if worst:
            assert abs(delta - 2 * np.sin(theta)) <= 1e-12

    def test_closed_form(self):
        x = np.array([0.0, 0.6, 0.8j])
        assert rotation_delta_bound(x, 2.5) == 10.0 * np.sin(0.5)
        assert rotation_delta_bound(np.zeros(3), 1.0) == 0.0


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
        maj = majorants(v1_norm, j_max)
        ref = [v1_norm]
        for j in range(2, j_max + 2):
            ref.append(sum(ref[j - l - 1] * ref[l - 1] for l in range(1, j)) / MAJORANT_A)
        assert maj.b == ref
        assert (maj.a, maj.v1_norm) == (MAJORANT_A, v1_norm)
        radius, b_last, tail = (float.fromhex(h) for h in MAJORANTS_BEFORE_PIN[v1_norm, j_max])
        assert maj.radius_lower_bound == radius
        assert maj.b[j_max] == b_last
        assert maj.tail(0.3 * radius, j_max) == tail
        # tail grows the series through the same recurrence
        longer = majorants(v1_norm, j_max)
        longer.tail(0.3 * radius, j_max + 3)
        assert longer.b == majorants(v1_norm, j_max + 3).b

    def test_recursion_base(self):
        maj = majorants(0.7, 6)
        assert maj.b[0] == 0.7
        assert maj.b[1] == pytest.approx(0.7**2 / maj.a, rel=1e-14)

    def test_radius(self):
        maj = majorants(2.0, 4)
        assert maj.radius_lower_bound == pytest.approx(maj.a / 8.0, rel=1e-14)

    def test_taylor_coefficients_catalan(self):
        # generating-function oracle: j-th coefficient of the branch series
        # is Catalan(j-1) * B1^j / a^{j-1}
        maj = majorants(0.9, 20)
        for j in range(1, 21):
            catalan = comb(2 * (j - 1), j - 1) // j
            closed = catalan * 0.9**j / maj.a ** (j - 1)
            assert maj.b[j - 1] == pytest.approx(closed, rel=1e-8)

    def test_tail_bounds_partial_sums(self):
        maj = majorants(1.0, 10)
        t = 0.3 * maj.radius_lower_bound
        tail = maj.tail(t, 10)
        direct = sum(t ** (j - 1) * maj.b[j - 1] for j in range(11, len(maj.b) + 1))
        assert tail >= direct > 0

    def test_tail_outside_radius_raises(self):
        maj = majorants(1.0, 6)
        with pytest.raises(ConvergenceError):
            maj.tail(2 * maj.radius_lower_bound, 6)

    def test_tail_finite_near_radius(self):
        # slow geometric decay must not overflow the coefficient recursion
        maj = majorants(1.0, 12)
        tail = maj.tail(0.999 * maj.radius_lower_bound, 12)
        assert np.isfinite(tail) and tail > 0
        direct = sum(
            (0.999 * maj.radius_lower_bound) ** (j - 1) * maj.b[j - 1]
            for j in range(13, len(maj.b) + 1)
        )
        assert tail >= direct

    def test_terms_dominated_by_majorants(self):
        for seed in (20, 21, 22):
            ops, *_ = edge_series(0.05, seed=seed, j_max=10)
            for nrm, bj in zip(ops.term_norms, ops.majorant.b):
                assert nrm <= bj * (1 + 1e-12)
