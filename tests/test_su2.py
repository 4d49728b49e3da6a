"""Representation-theory layer: exact half-integers, Wigner matrices,
angular momentum, Clebsch-Gordan blocks and intertwiners."""

import math
from fractions import Fraction

import numpy as np
import pytest

from spinnet.su2 import (
    TAU,
    GroupElement,
    HalfInt,
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
    # side="left": d/dt D(exp(t tau_a) g)|_0 = L_a D(g)
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
