"""The integer-keyed flux slot kernel against the tuple-keyed kernel it
replaced, kept here as the reference, and the label codec it runs on."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinnet import operators, su2
from spinnet.graphs import EmbeddedGraph, Surface, punctures
from spinnet.su2 import HalfInt

V = np.array


# ---------------------------------------------------------------------------
# the reference: slot actions on tuple-keyed coefficient dicts


def _ref_column_table(mat, tjs) -> list:
    rows = list(itertools.product(*(range(tj, -tj - 1, -2) for tj in tjs)))
    return [
        [(rows[r], v) for r, v in enumerate(column) if v != 0]
        for column in mat.T.tolist()
    ]


def _ref_slot_action(coeffs, slots, columns_for, acc) -> None:
    out = {}
    tables = {}
    for labels, coef in coeffs.items():
        tjs = tuple(labels[e][0] for e, _ in slots)
        table = tables.get(tjs)
        if table is None:
            table = tables[tjs] = columns_for(tjs)
        if not table:
            continue
        col = 0
        for (e, away), tj in zip(slots, tjs):
            _, tm, tn = labels[e]
            col = col * (tj + 1) + (tj - (tn if away else tm)) // 2
        for mags, v in table[col]:
            new = list(labels)
            for (e, away), mag in zip(slots, mags):
                tj, tm, tn = new[e]
                new[e] = (tj, tm, mag) if away else (tj, mag, tn)
            key = tuple(new)
            out[key] = out.get(key, 0j) + coef * v
    for key, v in out.items():
        acc[key] = acc.get(key, 0j) + v


def _ref_flux_columns(away, f, scale):
    def lookup(tjs):
        if tjs[0] == 0:
            return ()
        a, b, c = su2._slot_generators(tjs[0], away)
        return _ref_column_table(scale * (f[0] * a + f[1] * b + f[2] * c), tjs)

    return lookup


def _ref_fixed_spin_columns(slots, mat):
    table = _ref_column_table(mat, [tj for _, _, tj in slots])

    def lookup(tjs):
        for (e, _, tj), t in zip(slots, tjs):
            if t != tj:
                raise ValueError(f"edge {e} carries spin {HalfInt(t)}, expected {HalfInt(tj)}")
        return table

    return lookup


def _ref_area_image(pr, coarse_spins, coeffs):
    """The area on one fixed spin assignment, each fine edge carrying the
    spin of its coarse parent."""
    parent = operators._coarse_parents(pr.refinement)
    spins = [HalfInt.of(coarse_spins[parent[fe]]) for fe in range(pr.graph.n_edges)]
    acc = {}
    for p in pr.punctures:
        op = operators.area_vertex_matrix(p, spins)
        if not op.slots:
            continue
        smat = operators._sqrt_psd(op.matrix)
        smat[np.abs(smat) <= 1e-15] = 0.0
        slots = [(e, operators._is_away(d)) for e, d, _ in op.slots]
        _ref_slot_action(coeffs, slots, _ref_fixed_spin_columns(op.slots, smat), acc)
    return acc


# ---------------------------------------------------------------------------
# helpers


def _assert_same_bytes(got: dict, want: dict):
    assert list(got) == list(want)
    for g, w in zip(got.values(), want.values()):
        assert type(g) is type(w)
        assert (g.real.hex(), g.imag.hex()) == (w.real.hex(), w.imag.hex())


PARTS = [1.0, -1.0, 0.5, -0.25, 0.0, -0.0, 1e-16, 3.0]


def _random_coeffs(rng, tjs, terms):
    """Random labels on edges of the given twice-spins, with parts that are
    often +-0.0, and each term joined by its mirror (edge 0's m and n
    negated) with the negated coefficient, whose images cancel exactly
    under the real part of f . J."""
    coeffs = {}
    for _ in range(terms):
        labels = tuple(
            (tj, 2 * int(rng.integers(0, tj + 1)) - tj, 2 * int(rng.integers(0, tj + 1)) - tj)
            for tj in tjs
        )
        c = complex(rng.choice(PARTS), rng.choice(PARTS))
        coeffs[labels] = c
        tj, tm, tn = labels[0]
        mirror = ((tj, -tm, -tn),) + labels[1:]
        coeffs.setdefault(mirror, -c)
    return coeffs


# ---------------------------------------------------------------------------
# the codec


@st.composite
def _labelled_dicts(draw):
    n_edges = draw(st.integers(1, 12))
    tmax = draw(st.integers(0, 60))

    def label():
        tj = draw(st.integers(0, tmax))
        return (tj, 2 * draw(st.integers(0, tj)) - tj, 2 * draw(st.integers(0, tj)) - tj)

    parts = st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0])
    coeffs = {}
    for _ in range(draw(st.integers(0, 8))):
        labels = tuple(label() for _ in range(n_edges))
        coeffs[labels] = complex(draw(parts), draw(parts))
    return n_edges, coeffs


@settings(max_examples=200, deadline=None)
@given(_labelled_dicts())
def test_codec_round_trip(case):
    n_edges, coeffs = case
    codec = operators._LabelCodec(n_edges, [coeffs])
    keyed = codec.encode(coeffs)
    assert all(type(k) is int for k in keyed)
    _assert_same_bytes(codec.decode(keyed), coeffs)


def test_codec_round_trip_single_edge_graph():
    labels = [(tj, tm, tn) for tj in range(0, 61, 15) for tm in (-tj, tj) for tn in (tj, -tj)]
    coeffs = {(lab,): complex(i, -0.0) for i, lab in enumerate(dict.fromkeys(labels))}
    codec = operators._LabelCodec(1, [coeffs])
    _assert_same_bytes(codec.decode(codec.encode(coeffs)), coeffs)


# ---------------------------------------------------------------------------
# one-slot flux actions


@pytest.mark.parametrize("scale", [0.5, -0.5, 0.25j, -0.25j])
def test_one_slot_flux_matches_tuple_kernel(scale):
    rng = np.random.default_rng(11)
    cancelled = 0
    for trial in range(12):
        tjs = [int(t) for t in rng.integers(0, 4, size=4)]
        tjs[0] = 2  # spin 1 on edge 0: the mirrored terms cancel there
        coeffs = _random_coeffs(rng, tjs, terms=6)
        f = rng.normal(size=3)
        f[1] = [0.0, -0.0][trial % 2]
        codec = operators._LabelCodec(len(tjs), [coeffs])
        want, got = {}, {}
        for edge, away in itertools.product(range(len(tjs)), (True, False)):
            _ref_slot_action(coeffs, [(edge, away)], _ref_flux_columns(away, f, scale), want)
            action = operators._insertion(codec, edge, away, f, scale)
            action.apply(codec.encode(coeffs), got)
        _assert_same_bytes(codec.decode(got), want)
        cancelled += sum(v == 0 for v in want.values())
    assert cancelled > 0


# ---------------------------------------------------------------------------
# multi-slot area actions


def _star(directions, toward=()):
    """A star with one edge per direction from the origin; edges in
    ``toward`` point into the centre."""
    tips = [V(d, dtype=float) for d in directions]
    edges = [(i + 1, 0) if i in toward else (0, i + 1) for i in range(len(tips))]
    return EmbeddedGraph.build(V([[0.0, 0.0, 0.0]] + tips), edges)


Z_PATCH = Surface(
    V([0.0, 0.0, 0.0]),
    V([0.0, 0.0, 1.0]),
    V([[-2.0, -2.0, 0.0], [2.0, -2.0, 0.0], [2.0, 2.0, 0.0], [-2.0, 2.0, 0.0]]),
)
AREA_STAR = _star(
    [[1, 0.5, 1], [-1, 0.5, 0.7], [0.5, -1, -1], [-0.3, -1, -0.8]], toward=(1, 3)
)


@pytest.mark.parametrize("tjs", [(1, 1, 1, 1), (2, 1, 1, 2), (1, 2, 3, 1)])
def test_area_image_matches_tuple_kernel(tjs):
    rng = np.random.default_rng(sum(tjs))
    pr = punctures(AREA_STAR, Z_PATCH)
    spins = [HalfInt(t) for t in tjs]
    coeffs = _random_coeffs(rng, tjs, terms=10)
    codec = operators._LabelCodec(AREA_STAR.n_edges, [coeffs])
    got = operators._area_image(pr, codec)(codec.encode(coeffs))
    want = _ref_area_image(pr, spins, coeffs)
    assert len(want) > len(coeffs)
    _assert_same_bytes(codec.decode(got), want)


def test_multi_slot_action_matches_tuple_kernel():
    # a random matrix with zero entries on a toward, an away and a second
    # toward slot, applied twice into one accumulator
    rng = np.random.default_rng(3)
    tjs = (2, 1, 3, 1)
    slot_spec = [(2, "toward", 3), (0, "away", 2), (3, "toward", 1)]
    dim = 4 * 3 * 2
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat[rng.random(size=mat.shape) < 0.3] = 0.0
    slots = [(e, operators._is_away(d)) for e, d, _ in slot_spec]
    coeffs = _random_coeffs(rng, tjs, terms=12)
    codec = operators._LabelCodec(len(tjs), [coeffs])
    action = operators._SlotAction(codec, slots, lambda tjs: mat)
    want, got = {}, {}
    for _ in range(2):
        _ref_slot_action(coeffs, slots, _ref_fixed_spin_columns(slot_spec, mat), want)
        action.apply(codec.encode(coeffs), got)
    _assert_same_bytes(codec.decode(got), want)

