"""The Monte Carlo path computes, bit for bit, what its straightforward form
computes.

The reference functions below are the earlier ``wigner_entry``,
``haar_quaternions``, ``quaternions_to_matrices`` and Monte Carlo loop,
written term by term with a fresh array per product.  The package evaluates
the same expansion in preallocated buffers on the entry arrays of the Haar
samples; the ``inner-product`` golden prints the estimate at full precision,
so every float must keep its raw bits.
"""

import itertools
import math

import numpy as np
import pytest

from spinnet.graphs import EmbeddedGraph
from spinnet.su2 import (
    HalfInt,
    _wigner_terms,
    haar_quaternions,
    magnetic_range,
    quaternions_to_matrices,
    wigner_entry,
)
from spinnet.cyl import _MC_CHUNK, CylFun, mc_inner_product

V = np.array

THETA = EmbeddedGraph.build(
    V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
    [
        (0, 1),
        (0, 1, V([[0.0, 0.0, 0.0], [0.5, 0.7, 0.0], [1.0, 0.0, 0.0]])),
        (0, 1, V([[0.0, 0.0, 0.0], [0.5, 0.0, 0.7], [1.0, 0.0, 0.0]])),
    ],
)


# ---------------------------------------------------------------------------
# reference: the term-by-term forms


def ref_wigner_entry(j, row, col, mats):
    mats = np.asarray(mats, dtype=complex)
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    out = np.zeros(mats.shape[:-2], dtype=complex)
    for coef, pa, pb, pc, pd in _wigner_terms(j.twice, row.twice, col.twice):
        out += coef * a**pa * b**pb * c**pc * d**pd
    return out


def ref_haar_quaternions(rng, n):
    q = rng.normal(size=(n, 4))
    norms = np.linalg.norm(q, axis=1)
    bad = norms < 1e-12
    while np.any(bad):
        q[bad] = rng.normal(size=(int(bad.sum()), 4))
        norms = np.linalg.norm(q, axis=1)
        bad = norms < 1e-12
    return q / norms[:, np.newaxis]


def ref_quaternions_to_matrices(q):
    q = np.asarray(q, dtype=float)
    out = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = q[..., 0] - 1j * q[..., 3]
    out[..., 0, 1] = -1j * q[..., 1] - q[..., 2]
    out[..., 1, 0] = -1j * q[..., 1] + q[..., 2]
    out[..., 1, 1] = q[..., 0] + 1j * q[..., 3]
    return out


def ref_evaluate_batch(fun, mats, n):
    vals = np.zeros(n, dtype=complex)
    cache = {}
    for labels, coeff in fun.coefficients.items():
        term = np.full(n, complex(coeff))
        for e, (tj, tm, tn) in enumerate(labels):
            if tj == 0:
                continue
            key = (e, tj, tm, tn)
            ent = cache.get(key)
            if ent is None:
                ent = math.sqrt(tj + 1) * ref_wigner_entry(
                    HalfInt(tj), HalfInt(tm), HalfInt(tn), mats[e]
                )
                cache[key] = ent
            term = term * ent
        vals += term
    return vals


def ref_mc_inner_product(f1, f2, samples, seed):
    assert f1.graph is f2.graph
    rng = np.random.default_rng(seed)
    n_edges = f1.graph.n_edges
    total = 0j
    total_sq = 0.0
    done = 0
    while done < samples:
        n = min(_MC_CHUNK, samples - done)
        mats = [ref_quaternions_to_matrices(ref_haar_quaternions(rng, n)) for _ in range(n_edges)]
        v1 = ref_evaluate_batch(f1, mats, n)
        v2 = ref_evaluate_batch(f2, mats, n)
        z = np.conjugate(v1) * v2
        total += complex(z.sum())
        total_sq += float(np.sum(np.abs(z) ** 2))
        done += n
    mean = total / samples
    var = max(total_sq / samples - abs(mean) ** 2, 0.0)
    return mean, math.sqrt(var / samples)


# ---------------------------------------------------------------------------
# helpers


def bits(x) -> np.ndarray:
    """Raw IEEE bits of a float or complex array (complex: two words per entry)."""
    x = np.ascontiguousarray(np.atleast_1d(x))
    return x.view(np.uint64)


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    g, w = bits(got), bits(want)
    assert np.array_equal(g, w), f"{int((g != w).sum())} of {g.size} words differ"


def scalar_bits(z: complex) -> tuple[str, str]:
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def entries_of(tj):
    j = HalfInt(tj)
    for r, c in itertools.product(magnetic_range(j), repeat=2):
        yield j, r, c


def random_label(rng, tj_hi):
    tj = int(rng.integers(0, tj_hi + 1))
    tm = int(rng.integers(0, tj + 1)) * 2 - tj
    tn = int(rng.integers(0, tj + 1)) * 2 - tj
    return (tj, tm, tn)


def random_theta_fun(rng, terms, tj_hi=3):
    coeffs = {}
    for _ in range(terms):
        labels = tuple(random_label(rng, tj_hi) for _ in range(3))
        coeffs[labels] = complex(rng.normal(), rng.normal())
    return CylFun(THETA, coeffs)


# ---------------------------------------------------------------------------
# Haar samples and the matrices built from them


@pytest.mark.parametrize("seed", [1, 97, 5])
@pytest.mark.parametrize("n", [1, 7, 1000])
def test_haar_quaternions_and_matrices_keep_their_bits(seed, n):
    q = haar_quaternions(np.random.default_rng(seed), n)
    q_ref = ref_haar_quaternions(np.random.default_rng(seed), n)
    assert_same_bits(q, q_ref)
    assert_same_bits(quaternions_to_matrices(q), ref_quaternions_to_matrices(q_ref))


def test_quaternions_to_matrices_keeps_leading_axes():
    q = haar_quaternions(np.random.default_rng(3), 12).reshape(3, 4, 4)
    assert_same_bits(quaternions_to_matrices(q), ref_quaternions_to_matrices(q))
    one = q[0, 0]
    assert_same_bits(quaternions_to_matrices(one), ref_quaternions_to_matrices(one))


# ---------------------------------------------------------------------------
# wigner_entry


def test_wigner_entry_keeps_its_bits_on_haar_samples():
    rng = np.random.default_rng(41)
    mats = quaternions_to_matrices(haar_quaternions(rng, 500))
    for tj in range(13):
        for j, r, c in entries_of(tj):
            assert_same_bits(wigner_entry(j, r, c, mats), ref_wigner_entry(j, r, c, mats))
    for tj in (24, 37, 49):
        j = HalfInt(tj)
        mags = magnetic_range(j)
        picks = [(mags[0], mags[-1]), (mags[-1], mags[0]), (mags[0], mags[0])]
        picks += [(mags[int(a)], mags[int(b)]) for a, b in rng.integers(0, tj + 1, size=(6, 2))]
        for r, c in picks:
            assert_same_bits(wigner_entry(j, r, c, mats), ref_wigner_entry(j, r, c, mats))


def test_wigner_entry_keeps_its_bits_on_one_matrix():
    g = quaternions_to_matrices(haar_quaternions(np.random.default_rng(8), 1))[0]
    for tj in range(6):
        for j, r, c in entries_of(tj):
            got = wigner_entry(j, r, c, g)
            assert got.shape == ()
            assert_same_bits(got, ref_wigner_entry(j, r, c, g))


#: entries whose powers and products hit signed zeros, exact units and a
#: unit-modulus value with a rounded square
GRID_VALUES = (
    0.0,
    -0.0,
    complex(0.0, -0.0),
    complex(-0.0, -0.0),
    1.0,
    -1.0,
    1j,
    -1j,
    0.6 + 0.8j,
    -0.6 - 0.8j,
)


def test_wigner_entry_keeps_its_bits_on_a_finite_grid():
    mats = np.array(list(itertools.product(GRID_VALUES, repeat=4)), dtype=complex)
    mats = mats.reshape(-1, 2, 2)
    assert mats.shape == (10_000, 2, 2)
    for tj in range(8):
        for j, r, c in entries_of(tj):
            assert_same_bits(wigner_entry(j, r, c, mats), ref_wigner_entry(j, r, c, mats))


# ---------------------------------------------------------------------------
# the Monte Carlo inner product


@pytest.mark.parametrize("seed", [1, 97, 5, 2024])
def test_mc_inner_product_keeps_its_bits(seed):
    rng = np.random.default_rng(seed)
    f1 = random_theta_fun(rng, 3)
    shared = next(iter(f1.coefficients))
    f2 = random_theta_fun(rng, 3) + CylFun(THETA, {shared: complex(rng.normal(), rng.normal())})
    mc_seed = int(rng.integers(2**31))
    got = mc_inner_product(f1, f2, 20_000, seed=mc_seed)
    want = ref_mc_inner_product(f1, f2, 20_000, mc_seed)
    assert scalar_bits(got[0]) == scalar_bits(want[0])
    assert got[1].hex() == want[1].hex()


def test_mc_inner_product_keeps_its_bits_across_two_chunks():
    rng = np.random.default_rng(6)
    spin0 = ((0, 0, 0), (2, 0, 2), (0, 0, 0))
    constant = ((0, 0, 0),) * 3
    f1 = CylFun(THETA, {spin0: 0.7 - 0.2j, ((1, 1, -1), (3, 3, -1), (2, -2, 0)): 1.1})
    f2 = random_theta_fun(rng, 2) + CylFun(THETA, {spin0: 0.3 + 0.4j, constant: -0.5})
    samples = _MC_CHUNK + 7
    got = mc_inner_product(f1, f2, samples, seed=77)
    want = ref_mc_inner_product(f1, f2, samples, 77)
    assert scalar_bits(got[0]) == scalar_bits(want[0])
    assert got[1].hex() == want[1].hex()


def test_mc_inner_product_keeps_its_bits_on_a_constant_function():
    constant = CylFun(THETA, {((0, 0, 0),) * 3: 2.0 - 1.0j})
    other = CylFun(THETA, {((1, -1, 1), (0, 0, 0), (1, 1, 1)): 0.5j, ((0, 0, 0),) * 3: 1.5})
    for f1, f2 in ((constant, constant), (constant, other), (other, constant)):
        got = mc_inner_product(f1, f2, 3_000, seed=12)
        want = ref_mc_inner_product(f1, f2, 3_000, 12)
        assert scalar_bits(got[0]) == scalar_bits(want[0])
        assert got[1].hex() == want[1].hex()
