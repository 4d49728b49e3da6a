"""Library workloads: seeded op generators and their oracles.

A workload is a sequence of rounds.  ``round_ops(seed, r)`` returns the ops
of round ``r``: a list of ``Op(kind, run, check, corrupt)``.  ``run()`` does
the timed work and returns its result.  ``check(results, index)`` gets the
results of the round's ops (a dict keyed by op index) and the index of the op
to check, and returns ``(ok, detail)``; it may read the results of earlier
ops of the same round.  ``corrupt(result)`` returns a deliberately wrong
result, used by the benchmark's self-test.  Round ``r`` draws its inputs from
``numpy.random.default_rng([seed, r])`` only, so a round repeats exactly
whatever ran before it.

Tolerances are the acceptance battery's bounds (``tests/test_acceptance.py``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from spinnet.cyl import (
    Connection,
    CylFun,
    GaugeTransformation,
    gauge_transform_holonomy,
    gram,
    holonomy,
    inner_product,
    mc_inner_product,
    promote,
    states_for_spins,
)
from spinnet.graphs import EmbeddedGraph, Surface, punctures, subdivide_many
from spinnet.operators import (
    FluxSpec,
    area_matrix,
    flux_apply,
    flux_commutator,
    flux_commutator_closed_form,
    flux_matrix,
)
from spinnet.su2 import GroupElement, HalfInt, haar_sample, multiply, wigner

V = np.array
HALF = HalfInt(1)

HOLONOMY_TOL = 1e-9  # integrator tolerance of the field path
GAUGE_TOL = 1e-8  # integrator tolerance of the (x, u) path
LAW_BOUND = 1e-8  # composition, inverse and gauge covariance
CLOSED_FORM_BOUND = 1e-10  # constant connection
ALGEBRA_BOUND = 1e-12  # commutators, Jacobi sum, refinement invariance
SPECTRUM_BOUND = 1e-10  # flux and area eigenvalues against closed forms
MC_SIGMAS = 5.0
WIGNER_BOUND = 1e-9  # unitarity and homomorphism, for 2j <= 40 only
MC_SAMPLES = 100_000


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[dict, int], tuple[bool, str]]
    corrupt: Callable[[Any], Any]


def _rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


def _scaled(rng, shape, norm):
    """Gaussian direction with a fixed Frobenius norm."""
    m = rng.normal(size=shape)
    return m * (norm / np.linalg.norm(m))


def _dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _shift_group(h: GroupElement) -> GroupElement:
    return GroupElement.exp([1e-3, 0.0, 0.0]) @ h


def _shift_fun(f: CylFun) -> CylFun:
    return 1.001 * f


def patch(base, normal, u, w, half=2.0) -> Surface:
    base, u, w = V(base, dtype=float), V(u, dtype=float), V(w, dtype=float)
    corners = [base + a * half * u + b * half * w for a, b in [(-1, -1), (1, -1), (1, 1), (-1, 1)]]
    return Surface(base, V(normal, dtype=float), np.vstack(corners))


Z_PATCH = patch([0, 0, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0])
X_PATCH = patch([0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1])
DIAG_PATCH = patch([0, 0, 0], [1, 1, 0], [1, -1, 0], [0, 0, 1])


def star_graph(tips) -> EmbeddedGraph:
    tips = [V(t, dtype=float) for t in tips]
    return EmbeddedGraph.build(
        np.vstack([np.zeros(3)] + tips), [(0, i + 1) for i in range(len(tips))]
    )


STAR3 = star_graph([[1.0, 0.5, 1.0], [-1.0, 0.5, 0.7], [0.5, -1.0, -1.0]])
STAR4 = star_graph([[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]])
LOOP = EmbeddedGraph.build(
    V([[1.0, 0.2, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.3, -0.8], [1.5, 0.5, -0.8]]),
    [(0, 1), (1, 2), (2, 3), (3, 0)],
)
THETA = EmbeddedGraph.build(
    V([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
    [
        (0, 1),
        (0, 1, V([[0.0, 0.0, 0.0], [0.5, 0.7, 0.0], [1.0, 0.0, 0.0]])),
        (0, 1, V([[0.0, 0.0, 0.0], [0.5, 0.0, 0.7], [1.0, 0.0, 0.0]])),
    ],
)
KINK = EmbeddedGraph.build(
    V([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]), [(0, 1), (1, 2)]
)


# ---------------------------------------------------------------------------
# holonomy


PATH_LENGTH = 0.425
FIELD_NORMS = (0.75, 0.45, 1.7)  # |C0|, |C1|, |w| of C(x) = C0 + sin(w.x) C1
GAUGE_NORM = 1.2


def wave_field(C0, C1, w):
    """Component field x -> C0 + sin(w.x) C1, as a one-argument closure."""

    def field(x):
        return C0 + math.sin(float(w @ x)) * C1

    return field


def gauge_field(vg):
    """Gauge field x -> exp(vg @ (1, x0, sin x1)), as a one-argument closure."""

    def g(x):
        return GroupElement.exp(vg @ np.array([1.0, x[0], math.sin(x[1])]))

    return g


def assert_connection_form(conn: Connection, form: str, rng, field=None) -> None:
    """Check through the public ``apply`` that ``conn`` has the intended form.

    ``field``: it must act as x, u -> field(x) @ u, which a component field
    misread as an (x, u) form does not.  ``xu``: it must be linear in u.
    ``constant``: it must report itself constant.
    """
    x = rng.uniform(-1.0, 1.0, size=3)
    u = rng.normal(size=3)
    got = conn.apply(x, u)
    if form == "field":
        if conn.is_constant or _dev(got, field(x) @ u) > 1e-14:
            raise AssertionError("connection is not read as a component field x -> C(x)")
    elif form == "xu":
        if conn.is_constant or _dev(conn.apply(x, 2.0 * u), 2.0 * got) > 1e-6:
            raise AssertionError("connection is not read as an (x, u) form")
    elif form == "constant":
        if not conn.is_constant:
            raise AssertionError("connection is not read as constant")


def holonomy_round(seed: int, r: int) -> list[Op]:
    """Three random component-field connections, each with five holonomy ops
    (a two-segment polyline, its two segments, its reverse, and the constant
    part of the field along the first segment), then one op on the third
    connection's gauge transform, which is an (x, u) form."""
    rng = _rng(seed, r)
    ops: list[Op] = []
    n0, n1, nw = FIELD_NORMS
    for _ in range(3):
        C0, C1, w = _scaled(rng, (3, 3), n0), _scaled(rng, (3, 3), n1), _scaled(rng, 3, nw)
        field = wave_field(C0, C1, w)
        conn = Connection(field)
        assert_connection_form(conn, "field", rng, field)
        const = Connection(C0)
        assert_connection_form(const, "constant", rng)
        a = rng.uniform(-0.6, 0.6, size=3)
        b = a + _scaled(rng, 3, PATH_LENGTH)
        mid = 0.5 * (a + b) + _scaled(rng, 3, 0.2 * PATH_LENGTH)
        pts = np.vstack([a, mid, b])
        ops += _law_ops(conn, const, pts, C0, base=len(ops))
    vg = _scaled(rng, (3, 3), GAUGE_NORM)
    gauge = GaugeTransformation(gauge_field(vg), fd_step=1e-4)
    transformed = gauge.transform_connection(conn)
    assert_connection_form(transformed, "xu", rng)
    ops.append(_gauge_op(transformed, gauge, pts, full_index=len(ops) - 5))
    return ops


def _law_ops(conn, const, pts, C0, base) -> list[Op]:
    """Ops at indices base..base+4: full, first, second, reverse, constant.
    Each is checked by the laws it takes part in."""
    full, first, second, reverse = base, base + 1, base + 2, base + 3

    def composition(res):
        return _dev((res[second] @ res[first]).matrix, res[full].matrix)

    def inverse(res):
        return _dev((res[reverse] @ res[full]).matrix, np.eye(2))

    def law_check(*laws):
        def check(results, index):
            devs = {name: fn(results) for name, fn in laws}
            ok = all(d < LAW_BOUND for d in devs.values())
            return ok, ", ".join(f"{name} {d:.1e}" for name, d in devs.items())

        return check

    def closed_form(results, index):
        dev = _dev(results[index].matrix, GroupElement.exp(-C0 @ (pts[1] - pts[0])).matrix)
        return dev < CLOSED_FORM_BOUND, f"constant closed form {dev:.1e}"

    def field_op(path, check):
        return Op("field", lambda: holonomy(conn, path, tol=HOLONOMY_TOL), check, _shift_group)

    comp, inv = ("composition", composition), ("inverse", inverse)
    return [
        field_op(pts, law_check(comp, inv)),
        field_op(pts[:2], law_check(comp)),
        field_op(pts[1:], law_check(comp)),
        field_op(pts[::-1], law_check(inv)),
        Op("constant", lambda: holonomy(const, pts[:2]), closed_form, _shift_group),
    ]


def _gauge_op(transformed, gauge, pts, full_index) -> Op:
    def run():
        return {
            "transformed": holonomy(transformed, pts, tol=GAUGE_TOL),
            "g_start": gauge(pts[0]),
            "g_end": gauge(pts[-1]),
        }

    def check(results, index):
        h = results[index]
        expect = gauge_transform_holonomy(results[full_index], h["g_start"], h["g_end"])
        cov = _dev(h["transformed"].matrix, expect.matrix)
        return cov < LAW_BOUND, f"gauge covariance {cov:.1e}"

    def corrupt(h):
        return {**h, "transformed": _shift_group(h["transformed"])}

    return Op("gauge", run, check, corrupt)


# ---------------------------------------------------------------------------
# flux algebra


def _random_label(rng, tj_lo, tj_hi):
    tj = int(rng.integers(tj_lo, tj_hi + 1))
    tm = int(rng.integers(0, tj + 1)) * 2 - tj
    tn = int(rng.integers(0, tj + 1)) * 2 - tj
    return (tj, tm, tn)


def _random_state(rng, graph, terms):
    coeffs = {}
    for _ in range(terms):
        labels = tuple(_random_label(rng, 1, 2) for _ in range(graph.n_edges))
        coeffs[labels] = complex(rng.normal(), rng.normal())
    return CylFun(graph, coeffs)


def _presubdivided(fun: CylFun, specs) -> CylFun:
    for F in specs:
        fun = promote(fun, punctures(fun.graph, F.surface).refinement)
    return fun


def _commutator_op(rng, slot) -> Op:
    """State kind by ``slot`` in the round: a 1-, 2- or 3-term random state on
    the 3-valent star (two of four) or the 4-valent star, or the
    gauge-invariant spin-1/2 loop state; labels, smearings and surfaces are
    random."""
    choice = slot % 4
    if choice == 3:
        # gauge-invariant multi-term state on a closed loop
        psi = states_for_spins(LOOP, [HALF] * 4)[0].fun
        surfaces = [Z_PATCH, X_PATCH, DIAG_PATCH]
    else:
        graph = STAR3 if choice < 2 else STAR4
        psi = _random_state(rng, graph, terms=1 + (slot // 4) % 3)
        surfaces = [Z_PATCH, X_PATCH, DIAG_PATCH] if graph is STAR3 else [Z_PATCH, X_PATCH]
    i, k = rng.choice(len(surfaces), size=2, replace=False)
    F1 = FluxSpec(surfaces[int(i)], rng.normal(size=3))
    F2 = FluxSpec(surfaces[int(k)], rng.normal(size=3))

    def run():
        return flux_commutator(F1, F2, psi), flux_commutator_closed_form(F1, F2, psi)

    def check(results, index):
        double, closed = results[index]
        dev = (double - closed).norm()
        return dev < ALGEBRA_BOUND, f"commutator deviation {dev:.1e}"

    def corrupt(res):
        return _shift_fun(res[0]), res[1]

    return Op("commutator", run, check, corrupt)


def _jacobi_op(rng) -> Op:
    psi = states_for_spins(LOOP, [HALF] * 4)[0].fun
    specs = [
        FluxSpec(Z_PATCH, rng.normal(size=3)),
        FluxSpec(X_PATCH, rng.normal(size=3)),
        FluxSpec(DIAG_PATCH, rng.normal(size=3)),
    ]

    def run():
        fine = _presubdivided(psi, specs)
        terms = []
        for i in range(3):
            a, b, c = specs[i], specs[(i + 1) % 3], specs[(i + 2) % 3]
            inner = flux_commutator(b, c, fine)
            terms.append(flux_apply(a, inner) - flux_commutator(b, c, flux_apply(a, fine)))
        return terms

    def check(results, index):
        terms = results[index]
        smallest = min(t.norm() for t in terms)
        total = (terms[0] + terms[1] + terms[2]).norm()
        ok = total < ALGEBRA_BOUND and smallest > 1e-3
        return ok, f"Jacobi sum {total:.1e}, smallest term {smallest:.1e}"

    def corrupt(terms):
        return [_shift_fun(terms[0])] + terms[1:]

    return Op("jacobi", run, check, corrupt)


# (graph, twice-spins, surface) of the extended bases; dimension prod (2j+1)^2
MATRIX_CONFIGS = (
    (KINK, (1, 1), Z_PATCH),  # 16
    (STAR3, (1, 1, 1), Z_PATCH),  # 64
    (STAR3, (1, 2, 1), X_PATCH),  # 144
    (STAR4, (1, 1, 1, 1), Z_PATCH),  # 256
    (STAR3, (2, 1, 2), Z_PATCH),  # 324
    (STAR4, (1, 2, 1, 1), X_PATCH),  # 576
    (STAR3, (2, 2, 2), X_PATCH),  # 729
)


def _transverse_slots(graph, surface):
    """Edge ids leaving the origin above and below the surface plane (every
    configuration has its puncture at the origin)."""
    up, down = [], []
    for e, edge in enumerate(graph.edges):
        poly = edge.polyline
        if np.allclose(poly[0], 0.0):
            outward = poly[1] - poly[0]
        else:
            outward = poly[-2] - poly[-1]
        (up if float(outward @ surface.normal) > 0 else down).append(e)
    return up, down


def _couple(twice_spins) -> dict[int, int]:
    """Multiplicity of each total twice-spin in the coupling of a family."""
    out = {0: 1}
    for t in twice_spins:
        nxt: dict[int, int] = {}
        for a, n in out.items():
            for c in range(abs(a - t), a + t + 1, 2):
                nxt[c] = nxt.get(c, 0) + n
        out = nxt
    return out


def expected_flux_eigenvalues(twice, norm_f) -> np.ndarray:
    """|f|/2 times the sum of one magnetic number per slot, each repeated by
    the free far-end indices prod (2j+1)."""
    far = math.prod(t + 1 for t in twice)
    sums = [
        sum(ms) / 2.0
        for ms in itertools.product(*(range(-t, t + 1, 2) for t in twice))
    ]
    return np.sort(np.repeat(0.5 * norm_f * np.array(sums), far))


def expected_area_eigenvalues(twice, up, down) -> np.ndarray:
    """sqrt(2 ju(ju+1) + 2 jd(jd+1) - jud(jud+1)) over the couplings of the
    up and down families, times the far-end indices."""
    far = math.prod(t + 1 for t in twice)
    values = []
    for tu, nu in _couple([twice[e] for e in up]).items():
        for td, nd in _couple([twice[e] for e in down]).items():
            for tud in range(abs(tu - td), tu + td + 1, 2):
                lam = (2 * tu * (tu + 2) + 2 * td * (td + 2) - tud * (tud + 2)) / 4.0
                values.extend([math.sqrt(lam)] * (nu * nd * (tud + 1) * far))
    return np.sort(np.array(values))


def _matrix_op(kind, config, rng) -> Op:
    graph, twice, surface = config
    basis = states_for_spins(graph, [HalfInt(t) for t in twice], gauge_invariant=False)
    f = rng.normal(size=3)
    if kind == "flux_matrix":
        expect = expected_flux_eigenvalues(twice, float(np.linalg.norm(f)))

        def run():
            return flux_matrix(FluxSpec(surface, f), basis)

    else:
        expect = expected_area_eigenvalues(twice, *_transverse_slots(graph, surface))

        def run():
            return area_matrix(surface, basis)

    def check(results, index):
        mat = results[index]
        got = np.linalg.eigvalsh(mat)
        if got.shape != expect.shape:
            return False, f"dimension {got.shape[0]} != {expect.shape[0]}"
        dev = _dev(got, expect)
        return dev < SPECTRUM_BOUND, f"eigenvalue deviation {dev:.1e} (dim {len(basis)})"

    def corrupt(mat):
        out = np.array(mat)
        out[0, 0] += 1e-3
        return out

    return Op(kind, run, check, corrupt)


COMMUTATORS_PER_ROUND = 16


def flux_round(seed: int, r: int) -> list[Op]:
    """Commutator checks, one flux_matrix and one area_matrix op on the next
    basis configuration, and one Jacobi op."""
    rng = _rng(seed, r)
    ops = [_commutator_op(rng, i) for i in range(COMMUTATORS_PER_ROUND)]
    config = MATRIX_CONFIGS[r % len(MATRIX_CONFIGS)]
    ops.append(_matrix_op("flux_matrix", config, rng))
    ops.append(_matrix_op("area_matrix", config, rng))
    ops.append(_jacobi_op(rng))
    return ops


# ---------------------------------------------------------------------------
# harmonic analysis


def _peter_weyl_family():
    labels = [
        (tj, tm, tn)
        for tj in range(0, 4)
        for tm in range(-tj, tj + 1, 2)
        for tn in range(-tj, tj + 1, 2)
    ]
    return [CylFun(THETA, {(l1, l2, l3): 1.0}) for l1 in labels for l2 in labels for l3 in labels]


def _gram_op() -> Op:
    def run():
        funs = _peter_weyl_family()
        return len(funs), gram(funs, sparse=True)

    def check(results, index):
        n, G = results[index]
        ok = n == 27000 and G.nnz == n and bool((G.diagonal() == 1.0).all())
        return ok, f"{n} states, {G.nnz} nonzeros"

    def corrupt(res):
        n, G = res
        G = G.copy()
        G.data[0] += 1e-12
        return n, G

    return Op("gram", run, check, corrupt)


def _random_theta_fun(rng, terms):
    coeffs = {}
    for _ in range(terms):
        labels = tuple(_random_label(rng, 0, 3) for _ in range(3))
        coeffs[labels] = complex(rng.normal(), rng.normal())
    return CylFun(THETA, coeffs)


def _mc_op(rng) -> Op:
    f1 = _random_theta_fun(rng, 2)
    # share one term so that the exact value is usually nonzero
    shared = next(iter(f1.coefficients))
    f2 = _random_theta_fun(rng, 2) + CylFun(THETA, {shared: complex(rng.normal(), rng.normal())})
    mc_seed = int(rng.integers(2**31))

    def run():
        return mc_inner_product(f1, f2, MC_SAMPLES, seed=mc_seed)

    def check(results, index):
        est, err = results[index]
        exact = inner_product(f1, f2)
        sig = abs(est - exact) / max(err, 1e-6)
        return sig <= MC_SIGMAS, f"{sig:.2f} standard errors"

    def corrupt(res):
        est, err = res
        return est + 10.0 * MC_SIGMAS * max(err, 1e-6), err

    return Op("mc", run, check, corrupt)


def _refine_op(rng) -> Op:
    g = KINK

    def fun():
        coeffs = {}
        for _ in range(3):
            labels = tuple(_random_label(rng, 0, 4) for _ in range(2))
            coeffs[labels] = complex(rng.normal(), rng.normal())
        return CylFun(g, coeffs)

    f1, f2 = fun(), fun()
    events = []
    for eid, edge in enumerate(g.edges):
        t = float(rng.uniform(0.25, 0.75))
        events.append((eid, edge.polyline[0] + t * (edge.polyline[-1] - edge.polyline[0])))

    def run():
        fine, rmap = subdivide_many(g, events)
        return inner_product(f1, f2), inner_product(promote(f1, rmap), promote(f2, rmap))

    def check(results, index):
        before, after = results[index]
        dev = abs(before - after)
        return dev < ALGEBRA_BOUND, f"refinement deviation {dev:.1e}"

    def corrupt(res):
        return res[0], res[1] + 1e-9

    return Op("refine", run, check, corrupt)


WIGNER_TWICE = (24, 28, 32, 36, 40)


def _wigner_op(rng, tj) -> Op:
    a, b = haar_sample(rng), haar_sample(rng)
    j = HalfInt(tj)

    def run():
        return wigner(j, a).entries, wigner(j, b).entries, wigner(j, multiply(a, b)).entries

    def check(results, index):
        Da, Db, Dab = results[index]
        unit = _dev(Da.conj().T @ Da, np.eye(tj + 1))
        hom = _dev(Da @ Db, Dab)
        ok = unit < WIGNER_BOUND and hom < WIGNER_BOUND
        return ok, f"2j={tj}: unitarity {unit:.1e}, homomorphism {hom:.1e}"

    def corrupt(res):
        Da = np.array(res[0])
        Da[0, 0] += 1e-6
        return (Da,) + res[1:]

    return Op("wigner", run, check, corrupt)


def harmonic_round(seed: int, r: int) -> list[Op]:
    """Monte Carlo inner products, refinement-invariance pairs, Wigner
    matrices at one 2j of the fixed ladder, and the 27 000-state Gram."""
    rng = _rng(seed, r)
    ops = [_mc_op(rng) for _ in range(5)]
    ops += [_refine_op(rng) for _ in range(2)]
    ops.append(_wigner_op(rng, WIGNER_TWICE[r % len(WIGNER_TWICE)]))
    ops.append(_gram_op())
    return ops


#: ops of a warm-up round run during set-up: one self-contained group
WARMUP_OPS = {"holonomy": 5, "flux-algebra": 1, "harmonic": 1}

ROUNDS = {
    "holonomy": holonomy_round,
    "flux-algebra": flux_round,
    "harmonic": harmonic_round,
}
