"""Model validation and Hamiltonian assembly."""

import itertools

import numpy as np
import pytest

from gapflow.geometry import LatticeSpec, Rect
from gapflow.model import (
    coupled,
    ModelSpec,
    build_hamiltonian,
    default_onsite,
    initial_interactions,
    random_model,
)
from gapflow.tensor import hermitian_spectrum

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def chain_model(N, t, potentials=None):
    lat = LatticeSpec(1, N)
    if potentials is None:
        potentials = [
            (Rect((1,), (q,)), np.kron(SX, SX)) for q in range(1, N)
        ]
    return ModelSpec(lat, 2, default_onsite(2), potentials, t)


class TestValidation:
    @pytest.mark.parametrize("M", [0, 1])
    def test_site_dimension_below_two_rejected(self, M):
        with pytest.raises(ValueError, match=f"on-site dimension must be >= 2, got {M}"):
            ModelSpec(LatticeSpec(1, 2), M, np.zeros((M, M)), [], 0.0)

    def test_onsite_gap_below_one_rejected(self):
        h = np.diag([0.0, 0.5])
        with pytest.raises(ValueError, match="onsite gap < 1"):
            ModelSpec(LatticeSpec(1, 2), 2, h, [], 0.0)

    def test_onsite_must_annihilate_vacuum(self):
        h = np.array([[0.0, 0.1], [0.1, 1.0]])
        with pytest.raises(ValueError, match="annihilate the vacuum"):
            ModelSpec(LatticeSpec(1, 2), 2, h, [], 0.0)

    def test_leaky_onsite_is_projected_onto_the_vacuum_complement(self):
        # a vacuum column of norm 9e-11 (row 0 and column 0, diagonal
        # included) passes validation; the model keeps a copy with that
        # row and column exactly zero and leaves the caller's array alone
        h = np.array([[3e-11, 6e-11 - 6e-11j], [6e-11 + 6e-11j, 1.0]])
        given = h.copy()
        assert np.linalg.norm(h[:, 0]) == pytest.approx(9e-11)
        spec = ModelSpec(LatticeSpec(1, 2), 2, h, [], 0.0)
        assert not spec.onsite_h[0].any() and not spec.onsite_h[:, 0].any()
        assert spec.onsite_h[1, 1] == 1.0
        assert np.array_equal(h, given)

    @pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
    def test_onsite_hermiticity_is_the_is_hermitian_bound(self, factor, accepted):
        # a skew entry in the excited block of diag(0, 1, 1): ||h - h^+||_F
        # = sqrt(2) eps against is_hermitian's 1e-10 ||h||_F / sqrt(3) =
        # 1e-10 sqrt(2/3), so eps = 1e-10 / sqrt(3) is the boundary (the old
        # 2-norm test refused both sides at 1e-12)
        h = default_onsite(3)
        h[1, 2] = factor * 1e-10 / np.sqrt(3)
        lat = LatticeSpec(1, 2)
        if accepted:
            ModelSpec(lat, 3, h, [], 0.0)
        else:
            with pytest.raises(ValueError, match="onsite matrix must be Hermitian"):
                ModelSpec(lat, 3, h, [], 0.0)

    def test_potential_norm_cap(self):
        big = 1.5 * np.kron(SX, SX)
        with pytest.raises(ValueError, match="norm"):
            chain_model(2, 0.1, potentials=[(Rect((1,), (1,)), big)])

    def test_potential_range_cap(self):
        v = np.eye(8, dtype=complex)
        with pytest.raises(ValueError, match="circumference"):
            chain_model(3, 0.1, potentials=[(Rect((2,), (1,)), v)])

    def test_negative_coupling_warns(self):
        with pytest.warns(UserWarning, match="negative coupling"):
            chain_model(2, -0.1)

    def test_duplicate_support_rejected(self):
        v = np.kron(SX, SX)
        with pytest.raises(ValueError, match="duplicate"):
            chain_model(2, 0.1, potentials=[(Rect((1,), (1,)), v), (Rect((1,), (1,)), v)])


class TestBuildHamiltonian:
    def test_unperturbed_spectrum_occupation_oracle(self):
        spec = chain_model(3, 0.0)
        got = hermitian_spectrum(build_hamiltonian(spec))
        # oracle: eigenvalues count excited sites, multiplicity binomial
        expected = sorted(
            sum(bits) for bits in itertools.product((0, 1), repeat=3)
        )
        assert np.allclose(got, expected)
        assert got[0] == pytest.approx(0.0, abs=1e-14)
        assert got[1] - got[0] == pytest.approx(1.0, abs=1e-14)

    def test_two_site_closed_form(self):
        for t in (0.0, 0.1, 0.3):
            spec = chain_model(2, t)
            got = hermitian_spectrum(build_hamiltonian(spec))
            expected = np.sort(
                [1 - np.sqrt(1 + t * t), 1 - t, 1 + t, 1 + np.sqrt(1 + t * t)]
            )
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_linear_in_t(self):
        k0 = build_hamiltonian(chain_model(3, 0.0)).matrix
        k1 = build_hamiltonian(chain_model(3, 1.0)).matrix
        for t in (0.05, 0.6):
            kt = build_hamiltonian(chain_model(3, t)).matrix
            assert np.linalg.norm(kt - (k0 + t * (k1 - k0)), 2) < 1e-12

    def test_hermitian(self):
        spec = random_model(LatticeSpec(2, 2), 2, 0.3, seed=5)
        k = build_hamiltonian(spec).matrix
        assert np.linalg.norm(k - k.conj().T, 2) < 1e-12 * np.linalg.norm(k, 2)

    def test_coupled_weights_points_one_and_the_rest_t(self):
        spec = chain_model(3, 0.05)
        entries = list(initial_interactions(spec).values())
        pairs = coupled(entries, 0.05)
        assert [id(op) for _, op in pairs] == [id(op) for op in entries]
        assert [c for c, _ in pairs] == [1.0] * 3 + [0.05] * 2

    def test_vacuum_block_zero_at_t0(self):
        k = build_hamiltonian(chain_model(3, 0.0)).matrix
        assert abs(k[0, 0]) < 1e-15 and np.linalg.norm(k[0, 1:]) < 1e-15


class TestInitialInteractions:
    def test_points_carry_onsite(self):
        spec = chain_model(3, 0.05)
        entries = initial_interactions(spec)
        point = Rect((0,), (2,))
        assert np.allclose(entries[point].matrix, default_onsite(2))

    def test_no_entries_beyond_range(self):
        spec = chain_model(4, 0.05)
        entries = initial_interactions(spec)
        assert all(key.circumference <= 1 for key in entries)

    def test_edge_count_d2_n3(self):
        spec = random_model(LatticeSpec(2, 3), 2, 0.05, seed=0)
        entries = initial_interactions(spec)
        edges = [k for k in entries if k.circumference == 1]
        assert len(edges) == 2 * 3 * (3 - 1) == 12


class TestRandomModel:
    def test_deterministic(self):
        a = random_model(LatticeSpec(1, 4), 2, 0.05, seed=9)
        b = random_model(LatticeSpec(1, 4), 2, 0.05, seed=9)
        for (ja, ma), (jb, mb) in zip(a.potentials, b.potentials):
            assert ja == jb
            assert np.array_equal(ma, mb)

    def test_unit_norms(self):
        spec = random_model(LatticeSpec(2, 3), 2, 0.05, seed=11)
        for _, mat in spec.potentials:
            assert abs(np.linalg.norm(mat, 2) - 1.0) < 1e-12

    def test_seeds_differ(self):
        a = random_model(LatticeSpec(1, 3), 2, 0.05, seed=1)
        b = random_model(LatticeSpec(1, 3), 2, 0.05, seed=2)
        diffs = [
            np.max(np.abs(ma - mb))
            for (_, ma), (_, mb) in zip(a.potentials, b.potentials)
        ]
        assert max(diffs) > 1e-6

    def test_m3_supported(self):
        spec = random_model(LatticeSpec(1, 2), 3, 0.05, seed=4)
        assert spec.potentials[0][1].shape == (9, 9)
        w = hermitian_spectrum(build_hamiltonian(spec))
        assert w.shape == (9,)
