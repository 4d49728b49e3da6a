"""Representation-theory layer: exact half-integers, Wigner matrices,
angular momentum, Clebsch-Gordan blocks and intertwiners."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spinnet import su2
from spinnet.su2 import (
    TAU,
    WIGNER_ENTRY_MAX_TWICE,
    GroupElement,
    HalfInt,
    LieVector,
    adjoint_rotation,
    angular_momentum,
    casimir_eigenvalue,
    cg_coefficient,
    clebsch_gordan,
    haar_quaternions,
    haar_sample,
    intertwiner_basis,
    invariant_generator,
    magnetic_range,
    multiply,
    quaternions_to_matrices,
    spin_flip_matrix,
    spin_range,
    su2_exp,
    wigner,
    wigner_entry,
)

RNG = np.random.default_rng(2024)


def rand_g():
    return haar_sample(RNG)


# ---------------------------------------------------------------------------
# HalfInt


def test_halfint_coercion():
    assert HalfInt.of(2).twice == 4
    assert HalfInt.of(Fraction(3, 2)).twice == 3
    assert HalfInt.of(1.5).twice == 3
    assert HalfInt.of(HalfInt(5)).twice == 5
    with pytest.raises(ValueError):
        HalfInt.of(0.3)
    with pytest.raises(TypeError):
        HalfInt(1.5)  # constructor takes the twice-value, which must be integral


def test_halfint_arithmetic_and_display():
    j = HalfInt(3)
    assert str(j) == "3/2"
    assert str(HalfInt(4)) == "2"
    assert float(j) == 1.5
    assert (j + HalfInt(1)).twice == 4
    assert (j - 2).twice == -1
    assert abs(HalfInt(-3)) == j
    assert j.as_fraction() == Fraction(3, 2)
    assert not j.is_integer and HalfInt(2).is_integer
    assert HalfInt(1) < HalfInt(2) < HalfInt(4)
    assert not HalfInt(0)


def test_spin_and_magnetic_ranges():
    assert [s.twice for s in spin_range(HalfInt(1), HalfInt(2))] == [1, 3]
    assert [m.twice for m in magnetic_range(HalfInt(3))] == [3, 1, -1, -3]


# ---------------------------------------------------------------------------
# group elements and Wigner matrices


def test_group_element_projects_and_validates():
    g = GroupElement(np.eye(2))
    assert np.allclose(g.matrix, np.eye(2))
    with pytest.raises(ValueError):
        GroupElement(np.diag([2.0, 2.0]))  # not close to SU(2)
    with pytest.raises(ValueError):
        GroupElement(np.ones((3, 3)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_group_element_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        GroupElement(np.full((2, 2), bad))
    m = np.eye(2, dtype=complex)
    m[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        GroupElement(m, check=False)


def test_su2_exp_batched_matches_scalar():
    v = np.random.default_rng(5).normal(scale=1.5, size=(4, 5, 3))
    v[0, 0] = 0.0  # the sinc limit at the identity
    batch = su2_exp(v)
    assert batch.shape == (4, 5, 2, 2)
    scalar = np.array([[su2_exp(row) for row in block] for block in v])
    assert np.max(np.abs(batch - scalar)) < 1e-14
    eye = batch @ np.conj(np.swapaxes(batch, -1, -2))
    assert np.max(np.abs(eye - np.eye(2))) < 1e-14
    assert np.max(np.abs(np.linalg.det(batch) - 1.0)) < 1e-14
    # exp(v.tau) as a power series in the tau basis
    m = sum(v[1, 2, i] * TAU[i] for i in range(3))
    series = sum(np.linalg.matrix_power(m, k) / math.factorial(k) for k in range(30))
    assert np.max(np.abs(batch[1, 2] - series)) < 1e-14


def _exp_reference_bytes(v) -> bytes:
    return GroupElement(su2_exp(v), check=False).matrix.tobytes()


_EXP_GRID = (0.0, -0.0, 1e-300, -1e-300, 1.0, -2.5, 3.7, 1e-8)


def test_group_element_exp_is_bitwise_su2_exp_on_a_grid():
    # signed zeros and the sinc limit included; every input form takes one path
    for v in itertools.product(_EXP_GRID, repeat=3):
        want = _exp_reference_bytes(np.array(v))
        for form in (LieVector(v), list(v), np.array(v)):
            assert GroupElement.exp(form).matrix.tobytes() == want, v


_exp_component = st.one_of(
    st.floats(min_value=1e-300, max_value=1e3),
    st.floats(min_value=-1e3, max_value=-1e-300),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-300.0, 3.0)),
    st.sampled_from([0.0, -0.0]),
)


@settings(max_examples=400, deadline=None)
@given(st.tuples(_exp_component, _exp_component, _exp_component))
def test_group_element_exp_is_bitwise_su2_exp(v):
    assert GroupElement.exp(np.array(v)).matrix.tobytes() == _exp_reference_bytes(np.array(v))


@pytest.mark.parametrize("bad", [[np.inf, 0.0, 0.0], [np.nan, 0.0, 0.0], [1e300, 1e300, 0.0]])
def test_group_element_exp_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="matrix entries must be finite to renormalize into SU"):
        GroupElement.exp(bad)


def test_group_element_exp_rejects_wrong_length():
    with pytest.raises(ValueError, match="three real components"):
        GroupElement.exp([0.1, 0.2])


def test_wigner_half_is_defining_rep():
    for _ in range(5):
        g = rand_g()
        assert np.allclose(wigner(Fraction(1, 2), g).entries, g.matrix, atol=1e-14)


def test_wigner_unitary_and_multiplicative():
    for j in (1, Fraction(3, 2), 2, Fraction(5, 2)):
        a, b = rand_g(), rand_g()
        Da, Db = wigner(j, a).entries, wigner(j, b).entries
        Dab = wigner(j, multiply(a, b)).entries
        dim = Da.shape[0]
        assert np.max(np.abs(Da.conj().T @ Da - np.eye(dim))) < 1e-13
        assert np.max(np.abs(Da @ Db - Dab)) < 1e-13


def test_character_closed_form():
    # tr D^j(exp(theta n.tau)) = sin((2j+1) theta/2) / sin(theta/2)
    theta = 0.83
    n = np.array([0.3, -0.5, 0.81])
    n /= np.linalg.norm(n)
    g = GroupElement.exp(theta * n)
    for j in (Fraction(1, 2), 1, Fraction(3, 2), 3):
        tj = HalfInt.of(j).twice
        expect = math.sin((tj + 1) * theta / 2) / math.sin(theta / 2)
        assert abs(wigner(j, g).trace() - expect) < 1e-12


def test_wigner_identity_and_center():
    j = Fraction(3, 2)
    assert np.allclose(wigner(j, GroupElement.identity()).entries, np.eye(4))
    minus = GroupElement(-np.eye(2))
    # -1 acts as (-1)^{2j}
    assert np.allclose(wigner(j, minus).entries, -np.eye(4), atol=1e-13)
    assert np.allclose(wigner(1, minus).entries, np.eye(3), atol=1e-13)


def binomial_wigner(j, g):
    """The entry-by-entry binomial construction that ``wigner`` used before
    the eigendecomposition, kept as a reference."""
    j = HalfInt.of(j)
    mags = magnetic_range(j)
    out = np.empty((len(mags), len(mags)), dtype=complex)
    for ri, r in enumerate(mags):
        for ci, c in enumerate(mags):
            out[ri, ci] = wigner_entry(j, r, c, g.matrix)
    return out


def generator_exp(tj, v):
    """D^j(exp(v.tau)) for 2j = tj, as exp(-i v.J) by scipy's Pade expm."""
    J = angular_momentum(HalfInt(tj))
    return expm(-1j * sum(x * M for x, M in zip(v, J)))


@pytest.mark.parametrize("tj", [1, 2, 41, 80, 120, 200])
def test_wigner_unitary_and_multiplicative_at_high_spin(tj):
    rng = np.random.default_rng(tj)
    eye = np.eye(tj + 1)
    for _ in range(3):
        a, b = haar_sample(rng), haar_sample(rng)
        Da, Db = wigner(HalfInt(tj), a).entries, wigner(HalfInt(tj), b).entries
        Dab = wigner(HalfInt(tj), multiply(a, b)).entries
        assert np.max(np.abs(Da.conj().T @ Da - eye)) < 1e-12
        assert np.max(np.abs(Da @ Db - Dab)) < 1e-12


def test_wigner_matches_binomial_expansion():
    # the binomial reference drifts above 1e-13 from 2j = 24 on (up to 2e-13
    # on Haar samples), so the comparison stops at 2j = 20
    rng = np.random.default_rng(7)
    for tj in range(21):
        for _ in range(3):
            g = haar_sample(rng)
            D = wigner(HalfInt(tj), g).entries
            assert np.max(np.abs(D - binomial_wigner(HalfInt(tj), g))) < 1e-13


@pytest.mark.parametrize("tj", [24, 41, 80])
def test_wigner_matches_generator_exponential(tj):
    rng = np.random.default_rng(100 + tj)
    for _ in range(3):
        v = rng.normal(scale=2.0, size=3)
        D = wigner(HalfInt(tj), GroupElement.exp(v)).entries
        assert np.max(np.abs(D - generator_exp(tj, v))) < 1e-12


@pytest.mark.parametrize("tj", [1, 2, 41, 200])
def test_wigner_at_the_center_and_near_it(tj):
    eye = np.eye(tj + 1)
    sign = (-1) ** tj
    assert np.max(np.abs(wigner(HalfInt(tj), GroupElement.identity()).entries - eye)) < 1e-15
    minus = GroupElement(-np.eye(2))
    assert np.max(np.abs(wigner(HalfInt(tj), minus).entries - sign * eye)) < 1e-12
    # tiny rotations: |v| = 1e-300 leaves the identity, 1e-9 its first order
    for size in (1e-300, 1e-9):
        v = size * np.array([0.6, -0.48, 0.64])
        g = GroupElement.exp(v)
        D = wigner(HalfInt(tj), g).entries
        assert np.max(np.abs(D - generator_exp(tj, v))) < 1e-12
        # within 1e-9 of -identity
        Dm = wigner(HalfInt(tj), GroupElement(-g.matrix, check=False)).entries
        assert np.max(np.abs(Dm - sign * generator_exp(tj, v))) < 1e-12


@pytest.mark.parametrize("tj", [1, 2, 41, 200])
def test_wigner_of_negated_element_is_exact_sign(tj):
    # D(-h) = (-1)^{2j} D(h) bitwise: for Re a < 0 wigner works from -g.
    # Both sides are renormalized from the same matrix, since renormalizing
    # an already normalized element may move its last bit.
    rng = np.random.default_rng(500 + tj)
    for _ in range(10):
        h = haar_sample(rng).matrix
        plus = wigner(HalfInt(tj), GroupElement(h, check=False)).entries
        minus = wigner(HalfInt(tj), GroupElement(-h, check=False)).entries
        assert np.array_equal(minus, (-1) ** tj * plus)


def test_wigner_at_minus_identity_is_exact():
    minus = GroupElement(-np.eye(2))
    for tj in [*range(41), 99, 100, 199, 200, 399, 400]:
        assert np.array_equal(wigner(HalfInt(tj), minus).entries, (-1) ** tj * np.eye(tj + 1))


def test_wigner_entries_are_read_only():
    D = wigner(2, rand_g())
    assert not D.entries.flags.writeable
    with pytest.raises(ValueError):
        D.entries[0, 0] = 0.0


def test_wigner_entry_refuses_spins_above_its_ceiling():
    g = rand_g().matrix
    top = HalfInt(WIGNER_ENTRY_MAX_TWICE)
    assert np.isfinite(wigner_entry(top, top, -top, g))
    over = HalfInt(WIGNER_ENTRY_MAX_TWICE + 1)
    with pytest.raises(ValueError, match=f"2j = {over.twice} .* 2j <= {top.twice}"):
        wigner_entry(over, over, over, g)


@pytest.mark.parametrize(
    "bad", [math.inf, -math.inf, math.nan, complex(0.0, math.inf), complex(math.nan, 0.0)]
)
def test_wigner_entry_refuses_non_finite_matrices(bad):
    mats = quaternions_to_matrices(haar_quaternions(np.random.default_rng(4), 5))
    mats[3, 1, 0] = bad
    for tj in (0, 1, 4):
        j = HalfInt(tj)
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            wigner_entry(j, j, -j, mats)


def test_wigner_entry_refuses_a_non_matrix_stack():
    with pytest.raises(ValueError, match="stack of 2x2 matrices"):
        wigner_entry(HalfInt(1), HalfInt(1), HalfInt(1), np.ones((4, 3)))


_seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 200), _seeds)
def test_wigner_is_a_homomorphism_at_random_spins(tj, seed):
    rng = np.random.default_rng(seed)
    a, b = haar_sample(rng), haar_sample(rng)
    j = HalfInt(tj)
    Dab = wigner(j, multiply(a, b)).entries
    assert np.max(np.abs(wigner(j, a).entries @ wigner(j, b).entries - Dab)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, WIGNER_ENTRY_MAX_TWICE), st.data(), _seeds)
def test_wigner_entry_agrees_with_wigner_up_to_its_ceiling(tj, data, seed):
    j = HalfInt(tj)
    mags = magnetic_range(j)
    ri = data.draw(st.integers(0, tj), label="row")
    ci = data.draw(st.integers(0, tj), label="col")
    mats = quaternions_to_matrices(haar_quaternions(np.random.default_rng(seed), 8))
    got = wigner_entry(j, mags[ri], mags[ci], mats)
    want = [wigner(j, GroupElement(m, check=False)).entries[ri, ci] for m in mats]
    assert np.max(np.abs(got - want)) < 1e-9


# ---------------------------------------------------------------------------
# algebra action


@pytest.mark.parametrize("j", [Fraction(1, 2), 1, Fraction(3, 2), 2])
def test_angular_momentum_algebra(j):
    Jx, Jy, Jz = angular_momentum(j)
    dim = Jz.shape[0]
    for M in (Jx, Jy, Jz):
        assert np.max(np.abs(M - M.conj().T)) == 0.0
    assert np.max(np.abs(Jx @ Jy - Jy @ Jx - 1j * Jz)) < 1e-13
    assert np.max(np.abs(Jy @ Jz - Jz @ Jy - 1j * Jx)) < 1e-13
    cas = Jx @ Jx + Jy @ Jy + Jz @ Jz
    expect = float(casimir_eigenvalue(j))
    assert np.max(np.abs(cas - expect * np.eye(dim))) < 1e-13
    # m-descending ordering puts +j first on the Jz diagonal
    assert np.allclose(np.diag(Jz), [float(HalfInt.of(j)) - k for k in range(dim)])


def test_casimir_values_exact():
    assert casimir_eigenvalue(Fraction(1, 2)) == Fraction(3, 4)
    assert casimir_eigenvalue(1) == 2
    assert casimir_eigenvalue(Fraction(3, 2)) == Fraction(15, 4)
    assert casimir_eigenvalue(2) == 6


def test_invariant_generator_is_derivative():
    # as matrices d/dt D(exp(t tau_a) g)|_0 = L_a D(g), with L_a = D(tau_a);
    # the test below gives the action of both sides on coefficient labels
    j, eps = HalfInt(3), 1e-6
    g = rand_g()
    D = wigner(j, g).entries
    for axis in (1, 2, 3):
        L = invariant_generator(j, axis, "left")
        assert np.max(np.abs(L + L.conj().T)) < 1e-13  # anti-Hermitian
        e = GroupElement.exp([eps if a == axis else 0.0 for a in (1, 2, 3)])
        fd = (wigner(j, e @ g).entries - D) / eps
        assert np.max(np.abs(fd - L @ D)) < 1e-4
        # in any rep i L_a are the Hermitian angular momentum matrices
        assert np.allclose(1j * L, angular_momentum(j)[axis - 1], atol=1e-13)


@pytest.mark.parametrize("side", ["left", "right"])
def test_invariant_generator_acts_on_coefficient_labels(side):
    # f(h) = sum_mn c_mn D^j_mn(h): side='left' on the column label n gives
    # d/dt f(h exp(t tau_a))|_0, side='right' on the row label m gives
    # d/dt f(exp(-t tau_a) h)|_0
    rng = np.random.default_rng(31)
    j, eps = HalfInt(3), 1e-6
    h = haar_sample(rng)
    c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))

    def f(g, coeffs):
        return np.sum(coeffs * wigner(j, g).entries)

    for axis in (1, 2, 3):
        X = invariant_generator(j, axis, side)
        e = GroupElement.exp([eps if a == axis else 0.0 for a in (1, 2, 3)])
        if side == "left":
            moved, acted = h @ e, c @ X.T  # (c X^T)_mn = sum_k X_nk c_mk
        else:
            moved, acted = e.inverse() @ h, X @ c  # (X c)_mn = sum_k X_mk c_kn
        fd = (f(moved, c) - f(h, c)) / eps
        assert abs(fd - f(h, acted)) < 1e-4


def test_slot_generators_are_shared_and_read_only():
    for tj in (1, 2, 3):
        for column in (True, False):
            mats = su2._slot_generators(tj, column)
            assert su2._slot_generators(tj, column) is mats
            for m in mats:
                with pytest.raises(ValueError):
                    m[0, 0] = 1.0
            for axis in (1, 2, 3):
                side = "left" if column else "right"
                X = invariant_generator(HalfInt(tj), axis, side)
                assert np.array_equal(X, -1j * mats[axis - 1])


def test_spin_flip_dresses_transpose():
    # E J_i E^{-1} = -J_i^T, the key identity behind the "toward" slot action
    for j in (Fraction(1, 2), 1, Fraction(3, 2)):
        E = spin_flip_matrix(j)
        Einv = np.linalg.inv(E)
        for J in angular_momentum(j):
            assert np.max(np.abs(E @ J @ Einv + J.T)) < 1e-13
        sign = (-1.0) ** HalfInt.of(j).twice
        assert np.allclose(E @ E, sign * np.eye(E.shape[0]))


def test_adjoint_rotation():
    g, h = rand_g(), rand_g()
    R = adjoint_rotation(g)
    assert np.max(np.abs(R @ R.T - np.eye(3))) < 1e-13
    assert abs(np.linalg.det(R) - 1.0) < 1e-12
    assert np.max(np.abs(adjoint_rotation(multiply(g, h)) - R @ adjoint_rotation(h))) < 1e-12
    # conjugation rotates generator components: D(g) (f.J) D(g)^-1 = (Rf).J
    f = np.array([0.4, -1.1, 0.25])
    for j in (Fraction(1, 2), 1):
        Js = angular_momentum(j)
        D = wigner(j, g).entries
        lhs = D @ sum(f[i] * Js[i] for i in range(3)) @ D.conj().T
        rf = R @ f
        rhs = sum(rf[i] * Js[i] for i in range(3))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# coupling


def test_clebsch_gordan_blocks_orthonormal_and_complete():
    j1, j2 = Fraction(3, 2), 1
    blocks = clebsch_gordan(j1, j2)
    assert [b.j.twice for b in blocks] == [1, 3, 5]
    d = 4 * 3
    total = np.zeros((d, d))
    for b in blocks:
        bd = b.matrix.shape[1]
        assert np.max(np.abs(b.matrix.T @ b.matrix - np.eye(bd))) < 1e-13
        total += b.matrix @ b.matrix.T
    assert np.max(np.abs(total - np.eye(d))) < 1e-13


def test_clebsch_gordan_equivariance():
    j1, j2 = 1, Fraction(1, 2)
    g = rand_g()
    D1, D2 = wigner(j1, g).entries, wigner(j2, g).entries
    prod = np.kron(D1, D2)
    for b in clebsch_gordan(j1, j2):
        Dj = wigner(b.j, g).entries
        assert np.max(np.abs(prod @ b.matrix - b.matrix @ Dj)) < 1e-12


def test_clebsch_gordan_blocks_shared_and_read_only():
    # blocks are computed once per (2j1, 2j2), whatever the spin type
    a = clebsch_gordan(Fraction(3, 2), 1)
    b = clebsch_gordan(HalfInt(3), HalfInt(2))
    assert a is b
    assert [x.j for x in a] == [x.j for x in b]
    for x, y in zip(a, b):
        assert np.array_equal(x.matrix, y.matrix)
        with pytest.raises(ValueError):
            x.matrix[0, 0] = 1.0


def test_cg_coefficient_values():
    # 1/2 x 1/2: the singlet is (|+-> - |-+>)/sqrt(2)
    h = Fraction(1, 2)
    s = cg_coefficient(h, h, h, -h, 0, 0)
    assert abs(abs(s) - 1 / math.sqrt(2)) < 1e-14
    assert abs(cg_coefficient(h, h, h, -h, 0, 0) + cg_coefficient(h, -h, h, h, 0, 0)) < 1e-14
    # stretched state couples with coefficient 1
    assert abs(cg_coefficient(1, 1, 1, 1, 2, 2) - 1.0) < 1e-14


@pytest.mark.parametrize(
    "spins,dim",
    [
        ((Fraction(1, 2), Fraction(1, 2)), 1),
        ((Fraction(1, 2), Fraction(1, 2), 1), 1),
        ((Fraction(1, 2),) * 3, 0),  # odd total parity: no invariant
        ((Fraction(1, 2),) * 4, 2),
        ((1, 1, 1), 1),
        ((1, 1, 1, 1), 3),
        ((2, Fraction(3, 2), Fraction(1, 2)), 1),
    ],
)
def test_intertwiner_dimensions(spins, dim):
    basis = intertwiner_basis(spins)
    assert basis.dimension == dim
    assert len(basis.trees) == dim


def test_intertwiner_vectors_are_invariant():
    spins = (Fraction(1, 2), Fraction(1, 2), 1, 1)
    basis = intertwiner_basis(spins)
    assert basis.dimension > 0
    V = basis.vectors
    assert np.max(np.abs(V.conj().T @ V - np.eye(basis.dimension))) < 1e-12
    g = rand_g()
    D = np.array([[1.0]])
    for j in spins:
        D = np.kron(D, wigner(j, g).entries)
    assert np.max(np.abs(D @ V - V)) < 1e-12


def _unpruned_intertwiner_basis(spins):
    """intertwiner_basis as it was before coupling paths were pruned: every
    path is carried to the last slot and the spin-0 ones kept there."""
    spins = tuple(HalfInt.of(j) for j in spins)
    total_dim = math.prod(j.twice + 1 for j in spins)
    paths = [(spins[0], np.eye(spins[0].twice + 1), ())]
    for j in spins[1:]:
        nxt = []
        for acc, embed, tree in paths:
            for block in clebsch_gordan(acc, j):
                rows = block.matrix.reshape(embed.shape[1], -1)
                grown = (embed @ rows).reshape(-1, block.matrix.shape[1])
                nxt.append((block.j, grown, tree + (block.j,)))
        paths = nxt
    zero = HalfInt(0)
    columns = [embed[:, 0] for acc, embed, tree in paths if acc == zero]
    trees = tuple(tree for acc, embed, tree in paths if acc == zero)
    if not columns:
        return trees, np.zeros((total_dim, 0))
    q, r = np.linalg.qr(np.column_stack(columns))
    return trees, q * np.sign(np.diag(r))[np.newaxis, :]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=5))
def test_pruned_intertwiner_basis_equals_unpruned_bitwise(tjs):
    if len(tjs) == 5:
        tjs = [min(t, 3) for t in tjs]
    basis = intertwiner_basis([HalfInt(t) for t in tjs])
    trees, vectors = _unpruned_intertwiner_basis([HalfInt(t) for t in tjs])
    assert basis.trees == trees
    assert basis.vectors.shape == vectors.shape
    assert basis.vectors.tobytes() == vectors.tobytes()


def test_four_spin_8_intertwiners_fit_in_3_gb():
    # unpruned, the last coupling step of four spin-8 slots needs more than
    # 3 GB of address space and raises MemoryError
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
        "from spinnet.su2 import HalfInt, intertwiner_basis\n"
        "print(intertwiner_basis([HalfInt(16)] * 4).dimension)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "17\n"


# ---------------------------------------------------------------------------
# Haar sampling


def test_haar_moments():
    # E[D^j] = 0 for j > 0 and E |D^{1/2}_{mn}|^2 = 1/2, standard Schur facts
    rng = np.random.default_rng(7)
    n = 40000
    mats = quaternions_to_matrices(haar_quaternions(rng, n))
    mean = mats.mean(axis=0)
    assert np.max(np.abs(mean)) < 4.0 / math.sqrt(n)
    second = (np.abs(mats) ** 2).mean(axis=0)
    assert np.max(np.abs(second - 0.5)) < 4.0 / math.sqrt(n)
    dets = np.linalg.det(mats)
    assert np.max(np.abs(dets - 1.0)) < 1e-12
