"""Operator embedding, projections, norms, spectra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapflow.geometry import LatticeSpec, Rect, all_rects
from gapflow import tensor
from gapflow.tensor import (
    LocalOp,
    add_embedded,
    adjoint,
    border_norm,
    conjugate_on_legs,
    embed,
    embedded_sum,
    hermitian_norm,
    hermitian_spectrum,
    is_hermitian,
    offdiag_norm,
    permute_legs,
)

from oracles import (
    LEG_PARAMS,
    STACK_PARAMS,
    dense_conjugation,
    identity_op,
    kron_embed,
    leg_case,
    offdiag_part,
    op_norm,
    projector_minus,
    projector_plus,
    random_hermitian_stack,
    stack_case,
    vacuum_projector,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2


def random_local(rng, support, M=2):
    return LocalOp(support, random_hermitian(rng, M**support.n_sites), M)


class TestEmbed:
    def test_single_site_into_edge(self):
        point = Rect((0, 0), (1, 1))
        edge = Rect((1, 0), (1, 1))
        got = embed(LocalOp(point, SZ, 2), edge)
        # canonical order puts site (1,1) first, so sigma_z acts on the left slot
        assert np.allclose(got.matrix, np.kron(SZ, np.eye(2)))

    def test_other_end_of_edge(self):
        point = Rect((0, 0), (2, 1))
        edge = Rect((1, 0), (1, 1))
        got = embed(LocalOp(point, SZ, 2), edge)
        assert np.allclose(got.matrix, np.kron(np.eye(2), SZ))

    def test_identity_embedding(self):
        rng = np.random.default_rng(0)
        r = Rect((1,), (1,))
        op = random_local(rng, r)
        assert embed(op, r) is op

    def test_not_contained_rejected(self):
        with pytest.raises(ValueError, match="not contained"):
            embed(LocalOp(Rect((1,), (1,)), np.eye(4), 2), Rect((1,), (2,)))

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        lat = LatticeSpec(2, 3)
        rects = [r for r in all_rects(lat) if r.n_sites <= 4]
        for _ in range(25):
            small = rects[rng.integers(len(rects))]
            bigger = [r for r in all_rects(lat) if r.contains(small) and r.n_sites <= 6]
            big = bigger[rng.integers(len(bigger))]
            op = random_local(rng, small)
            assert abs(op_norm(embed(op, big)) - op_norm(op)) < 1e-12

    def test_functorial(self):
        rng = np.random.default_rng(2)
        small = Rect((1, 0), (1, 1))
        mid = Rect((1, 1), (1, 1))
        big = Rect((2, 1), (1, 1))
        op = random_local(rng, small)
        once = embed(op, big)
        twice = embed(embed(op, mid), big)
        assert np.linalg.norm(once.matrix - twice.matrix, 2) < 1e-12

    def test_multiplicative(self):
        rng = np.random.default_rng(3)
        small = Rect((1,), (2,))
        big = Rect((2,), (1,))
        a = random_local(rng, small)
        b = random_local(rng, small)
        prod_then_embed = embed(LocalOp(small, a.matrix @ b.matrix, 2), big)
        embed_then_prod = embed(a, big).matrix @ embed(b, big).matrix
        assert np.linalg.norm(prod_then_embed.matrix - embed_then_prod, 2) < 1e-12

    def test_commutes_with_disjoint_factor(self):
        # operators embedded from disjoint supports commute
        rng = np.random.default_rng(4)
        big = Rect((2,), (1,))
        a = embed(random_local(rng, Rect((0,), (1,))), big).matrix
        b = embed(random_local(rng, Rect((0,), (3,))), big).matrix
        assert np.linalg.norm(a @ b - b @ a, 2) < 1e-12


def random_unitary(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(raw)[0]


class TestAddEmbedded:
    @pytest.mark.parametrize("d, N, M, place", LEG_PARAMS)
    def test_matches_kron_embed(self, d, N, M, place):
        # two accumulations with complex coefficients into one buffer, the
        # second from a single site of J
        full, J = leg_case(d, N, place)
        rng = np.random.default_rng(7 * d + N + 10 * M)
        a = LocalOp(J, rng.standard_normal((M**J.n_sites,) * 2) * (1 + 0.5j), M)
        point = Rect((0,) * d, J.sites()[-1])
        b = random_local(rng, point, M)
        dim = M**full.n_sites
        total = np.zeros((dim, dim), dtype=complex)
        add_embedded(total, a, full, 0.3 - 1.7j)
        add_embedded(total, b, full, -2.1j)
        ref = (0.3 - 1.7j) * kron_embed(a, full).matrix - 2.1j * kron_embed(b, full).matrix
        assert np.max(np.abs(total - ref)) <= 1e-14
        assert np.array_equal(embed(a, full).matrix, kron_embed(a, full).matrix)

    @pytest.mark.parametrize("d, N, M, place", LEG_PARAMS)
    def test_embedded_sum_adds_in_the_given_order(self, d, N, M, place):
        # the same bits as add_embedded term by term, in the given order
        full, J = leg_case(d, N, place)
        rng = np.random.default_rng(3 * d + N + 10 * M)
        point = Rect((0,) * d, J.sites()[0])
        terms = [(1.0, random_local(rng, point, M)), (0.3 - 1.7j, random_local(rng, J, M))]
        dim = M**full.n_sites
        total = np.zeros((dim, dim), dtype=complex)
        for coeff, op in terms:
            add_embedded(total, op, full, coeff)
        got = embedded_sum(terms, full, M)
        assert got.support == full and np.array_equal(got.matrix, total)
        assert not embedded_sum([], full, M).matrix.any()

    def test_non_contiguous_destination_rejected(self):
        edge = Rect((1,), (1,))
        total = np.zeros((4, 4), dtype=complex).T[::1, ::-1]
        with pytest.raises(ValueError, match="C-contiguous"):
            add_embedded(total, LocalOp(Rect((0,), (1,)), SZ, 2), edge)


class TestConjugateOnLegs:
    @pytest.mark.parametrize("d, N, M, place", LEG_PARAMS)
    def test_matches_dense_embedded_product(self, d, N, M, place):
        full, J = leg_case(d, N, place)
        rng = np.random.default_rng(11 * d + N + 10 * M)
        b = random_local(rng, full, M)
        u = random_unitary(rng, M**J.n_sites)
        got = conjugate_on_legs(b, J, u)
        ref = dense_conjugation(b, J, u)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(b.matrix)

    @pytest.mark.parametrize("d, N, M, place", LEG_PARAMS)
    def test_permutation_matches_single_leg_transpose(self, d, N, M, place):
        # merging adjacent legs must give the plain one-axis-per-leg transpose
        full, J = leg_case(d, N, place)
        rng = np.random.default_rng(13 * d + N + 10 * M)
        a = random_local(rng, full, M).matrix
        sites, inner = full.sites(), set(J.sites())
        perm = [i for i, s in enumerate(sites) if s not in inner]
        perm += [i for i, s in enumerate(sites) if s in inner]
        n = len(sites)
        ref = a.reshape((M,) * 2 * n).transpose(perm + [n + i for i in perm]).reshape(a.shape)
        moved = permute_legs(a, full, J, M)
        assert np.array_equal(moved, ref)
        assert np.array_equal(permute_legs(moved, full, J, M, back=True), a)

    def test_rejects_outside_rectangle(self):
        op = LocalOp(Rect((1,), (1,)), np.eye(4), 2)
        with pytest.raises(ValueError, match="not contained"):
            conjugate_on_legs(op, Rect((1,), (2,)), np.eye(4))


class TestProjectors:
    def test_single_site(self):
        point = Rect((0,), (1,))
        assert np.allclose(projector_minus(point, 2).matrix, np.diag([1.0, 0.0]))
        assert np.allclose(projector_plus(point, 2).matrix, np.diag([0.0, 1.0]))

    def test_rank_and_algebra(self):
        for rect in [Rect((1,), (1,)), Rect((1, 1), (1, 1))]:
            pm = projector_minus(rect, 2).matrix
            pp = projector_plus(rect, 2).matrix
            assert np.linalg.matrix_rank(pm) == 1
            assert np.allclose(pm @ pm, pm) and np.allclose(pp @ pp, pp)
            assert np.allclose(pm.conj().T, pm) and np.allclose(pp.conj().T, pp)
            assert np.allclose(pm + pp, np.eye(pm.shape[0]))
            assert np.linalg.norm(pp @ pm, 2) < 1e-15

    def test_vacuum_projector(self):
        lat = LatticeSpec(1, 3)
        pvac = vacuum_projector(lat, 2)
        assert pvac.support == lat.full_rect()
        assert np.allclose(pvac.matrix, projector_minus(lat.full_rect(), 2).matrix)
        # the unperturbed sum of on-site terms annihilates the vacuum block
        h = np.diag([0.0, 1.0])
        k0 = sum(
            embed(LocalOp(Rect((0,), (q,)), h, 2), lat.full_rect()).matrix
            for q in (1, 2, 3)
        )
        assert np.linalg.norm(pvac.matrix @ k0 @ pvac.matrix, 2) < 1e-15

    def test_site_sum_dominates_complement_small(self):
        # two-site instance of the projection inequality, by direct eigenvalues
        edge = Rect((1,), (1,))
        site_sum = sum(
            embed(projector_plus(Rect((0,), (q,)), 2), edge).matrix for q in (1, 2)
        )
        diff = site_sum - projector_plus(edge, 2).matrix
        assert np.linalg.eigvalsh(diff)[0] >= -1e-12


def faddeev_leverrier(mat):
    """Characteristic polynomial coefficients by the trace recursion."""
    n = mat.shape[0]
    coeffs = [1.0 + 0j]
    m = np.zeros_like(mat)
    for k in range(1, n + 1):
        m = mat @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(mat @ m) / k)
    return coeffs


class TestNormsAndSpectra:
    def test_identity(self):
        op = identity_op(Rect((1,), (1,)), 2)
        assert abs(op_norm(op) - 1.0) < 1e-15
        assert np.allclose(hermitian_spectrum(op), np.ones(4))

    def test_sorted_ascending(self):
        mat = np.diag([3.0, 0.0, 2.0, 1.0])
        assert np.allclose(
            hermitian_spectrum(LocalOp(Rect((1,), (1,)), mat, 2)), [0, 1, 2, 3]
        )

    def test_against_companion_matrix_oracle(self):
        rng = np.random.default_rng(5)
        mat = random_hermitian(rng, 8)
        got = hermitian_spectrum(mat)
        # independent route: Faddeev-LeVerrier coefficients -> companion roots
        coeffs = faddeev_leverrier(mat)
        roots = np.sort(np.roots(coeffs).real)
        assert np.max(np.abs(got - roots)) < 1e-8

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_spectrum(np.kron(bad, np.eye(2)))

    @pytest.mark.parametrize("spread", [False, True])
    def test_asymmetry_above_two_norm_bound_rejected(self, spread):
        # just above the 2-norm bound ||A - A^+|| > 1e-10 ||A||: on a flat
        # spectrum with a single skewed entry (where ||A||_F / sqrt(n) is
        # ||A|| itself) and on a random spectrum with a spread-out skew
        rng = np.random.default_rng(8)
        dim = 64
        if spread:
            mat = random_hermitian(rng, dim)
            skew = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        else:
            mat = np.diag(rng.choice([-1.0, 1.0], dim)).astype(complex)
            skew = np.zeros((dim, dim), dtype=complex)
            skew[0, 1] = 1.0
        skew *= 1e-10 / np.linalg.norm(skew - skew.conj().T, 2)
        bad = mat + 1.01 * np.linalg.norm(mat, 2) * skew
        assert np.linalg.norm(bad - bad.conj().T, 2) > 1e-10 * np.linalg.norm(bad, 2)
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_spectrum(bad)

    def test_is_hermitian_refuses_what_a_two_norm_test_accepts(self):
        # ||A - A^+||_2 = 5e-11 is within 1e-10 max(||A||, 1), but the
        # Frobenius test against ||A||_F / sqrt(n) refuses it
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 1], mat[1, 0] = 0.5, 0.50000000005
        assert np.linalg.norm(mat - mat.conj().T, 2) <= 1e-10 * max(np.linalg.norm(mat, 2), 1)
        assert not is_hermitian(mat)
        assert is_hermitian(mat + mat.conj().T) and is_hermitian(np.zeros((4, 4)))

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_adjoint_is_a_contiguous_conjugate_transpose(self, dtype):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 10)).astype(dtype)
        if dtype is complex:
            x += 1j * rng.standard_normal((6, 10))
        for src in (x, x[:, ::2], x.T):
            got = adjoint(src)
            assert got.flags.c_contiguous and not np.shares_memory(got, src)
            assert np.array_equal(got, src.conj().T)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            LocalOp(Rect((1,), (1,)), np.eye(3), 2)


class TestHermitianNorm:
    @settings(max_examples=100, deadline=None)
    @given(
        dim=st.integers(1, 64),
        log_scale=st.floats(-12, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_svd_norm(self, dim, log_scale, seed):
        mat = random_hermitian(np.random.default_rng(seed), dim) * 10.0**log_scale
        svd = np.linalg.norm(mat, 2)
        assert abs(hermitian_norm(mat) - svd) <= 1e-12 * svd

    def test_local_op_and_signed_spectrum(self):
        # the norm is the largest |eigenvalue|, whichever end it sits at
        edge = Rect((1,), (1,))
        assert hermitian_norm(LocalOp(edge, np.diag([-3.0, 0.5, 1.0, 2.0]), 2)) == 3.0
        assert hermitian_norm(LocalOp(edge, np.diag([-1.0, 0.5, 1.0, 2.0]), 2)) == 2.0

    def test_zero_matrix(self):
        assert hermitian_norm(np.zeros((4, 4))) == 0.0

    def test_local_op_norms_taken_once(self, monkeypatch):
        # LocalOp.norm and .fro_norm are hermitian_norm and the Frobenius
        # norm bit for bit, each computed on first use only
        op = random_local(np.random.default_rng(12), Rect((2,), (1,)))
        want = hermitian_norm(op), float(np.linalg.norm(op.matrix))
        normed = []
        monkeypatch.setattr(
            tensor, "hermitian_norm", lambda a: normed.append(a) or hermitian_norm(a)
        )
        assert (op.norm, op.fro_norm) == want
        assert (op.norm, op.fro_norm) == want
        assert normed == [op]
        assert op.fro_norm is op.fro_norm

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_norm(np.kron(bad, np.eye(2)))


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestBorderNorm:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 48),
        k=st.integers(1, 12),
        log_scale=st.floats(-12, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_svd_norm(self, n, k, log_scale, seed):
        # also covers 2k >= n, where the border spans the whole space
        rng = np.random.default_rng(seed)
        b = random_complex(rng, (n, k))
        c = random_complex(rng, (k, n)) * 10.0**log_scale
        svd = np.linalg.norm(b @ c + c.conj().T @ b.conj().T, 2)
        assert abs(border_norm(b, c) - svd) <= 1e-12 * svd

    def test_zero_c(self):
        b = random_complex(np.random.default_rng(0), (16, 4))
        assert border_norm(b, np.zeros((4, 16), dtype=complex)) == 0.0

    def test_rank_deficient_b(self):
        # B's nonzero columns meet zero rows of C, so B C = 0 exactly
        rng = np.random.default_rng(1)
        b = random_complex(rng, (16, 4))
        b[:, 2:] = 0.0
        c = random_complex(rng, (4, 16))
        c[:2] = 0.0
        assert border_norm(b, c) == 0.0
        assert border_norm(np.zeros((16, 4)), c) == 0.0

    # 2k = n takes the dense eigensolve, 2k < n the QR of [B, C^+]; a
    # rotation border on n_J = 4 (two sites, M = 2) has 2k = n, on n_J = 8
    # 2k = n / 2
    @pytest.mark.parametrize("n, k", [(16, 8), (64, 32), (64, 16), (256, 64), (27, 6)])
    @pytest.mark.parametrize("stack", [(), (3,)])
    def test_both_paths_match_dense_norm(self, n, k, stack):
        rng = np.random.default_rng(n + k + len(stack))
        b = random_complex(rng, (n, k))
        c = random_complex(rng, stack + (k, n))
        norms = np.atleast_1d(border_norm(b, c))
        for got, ci in zip(norms, c.reshape((-1, k, n))):
            want = hermitian_norm(b @ ci + ci.conj().T @ b.conj().T)
            assert abs(got - want) <= 1e-13 * want


class TestOffdiagNorm:
    @pytest.mark.parametrize("M", [2, 3])
    def test_matches_svd_of_offblock_part(self, M):
        rng = np.random.default_rng(40 + M)
        for n_sites in (1, 2, 3):
            dim = M**n_sites
            for side in ("both", "column", "row"):
                mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                mat *= 10.0 ** rng.uniform(-6, 3)
                if side == "column":
                    mat[0, 1:] = 0.0
                elif side == "row":
                    mat[1:, 0] = 0.0
                svd = np.linalg.norm(offdiag_part(mat), 2)
                assert abs(offdiag_norm(mat) - svd) <= 1e-12 * svd

    def test_block_diagonal_is_zero(self):
        assert offdiag_norm(np.diag([1.0, 2.0, 3.0, 4.0])) == 0.0


class TestStackedKernels:
    # a leading stack axis must give, slice by slice, the bits of the call
    # on that operator alone
    @pytest.mark.parametrize("d, M, place, k", STACK_PARAMS)
    def test_slices_match_single_calls(self, d, M, place, k):
        T, J = stack_case(d, place)
        rng = np.random.default_rng(1000 * d + 100 * M + 10 * k + len(place))
        a = random_hermitian_stack(rng, k, M**T.n_sites)
        small = LocalOp(J, random_hermitian_stack(rng, k, M**J.n_sites), M)
        moved = permute_legs(a, T, J, M)
        back = permute_legs(moved, T, J, M, back=True)
        big = embed(small, T).matrix
        total = a.copy()
        add_embedded(total, small, T, 0.3 - 1.7j)
        assert big.shape == a.shape
        for i in range(k):
            single = LocalOp(J, small.matrix[i], M)
            assert np.array_equal(moved[i], permute_legs(a[i], T, J, M))
            assert np.array_equal(back[i], a[i])
            assert np.array_equal(big[i], embed(single, T).matrix)
            want = a[i].copy()
            add_embedded(want, single, T, 0.3 - 1.7j)
            assert np.array_equal(total[i], want)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n, width", [(16, 4), (27, 9), (64, 32), (8, 8)])
    def test_border_norm_slices_match_single_calls(self, n, width, k):
        # one shared B against a stack of C; 2 width >= n included
        rng = np.random.default_rng(n + width + k)
        b = random_complex(rng, (n, width))
        c = random_complex(rng, (k, width, n))
        norms = border_norm(b, c)
        assert norms.shape == (k,)
        for i in range(k):
            assert norms[i] == border_norm(b, c[i])

