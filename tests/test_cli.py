"""End-to-end runs of the command-line front end against the shipped job
documents, plus the exit-code contract."""

import itertools
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from spinnet import cli, cyl
from spinnet.cli import main
from spinnet.cyl import states_for_spins
from spinnet.graphs import EmbeddedGraph
from spinnet.su2 import WIGNER_ENTRY_MAX_TWICE, HalfInt, intertwiner_basis

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run_cli(tmp_path, *args, name="out.csv"):
    out = tmp_path / name
    code = main([*args, "--output", str(out)])
    return code, out.read_text() if out.exists() else ""


def rows(text):
    lines = text.strip().splitlines()
    assert lines[0] == "value,multiplicity,labels"
    out = []
    for line in lines[1:]:
        v, m, lab = line.split(",", 2)
        out.append((float(v), int(m), lab))
    return out


def test_area_spectrum_single_crossing(tmp_path):
    code, text = run_cli(
        tmp_path,
        "--command", "area-spectrum",
        "--input", str(FIXTURES / "one_crossing.yaml"),
        "--gamma", "1.0",
        "--max-spin", "1",
    )
    assert code == 0
    got = rows(text)
    assert len(got) == 2
    assert got[0][0] == 0.0
    assert got[1][0] == pytest.approx(4.0 * math.pi * math.sqrt(3.0), rel=1e-12)
    assert "ju=1/2" in got[1][2]


def test_area_scaling_is_linear_in_gamma(tmp_path):
    _, base = run_cli(
        tmp_path,
        "--command", "area-spectrum",
        "--input", str(FIXTURES / "one_crossing.yaml"),
        "--max-spin", "1",
        name="g1.csv",
    )
    _, doubled = run_cli(
        tmp_path,
        "--command", "area-spectrum",
        "--input", str(FIXTURES / "one_crossing.yaml"),
        "--gamma", "2.0",
        "--max-spin", "1",
        name="g2.csv",
    )
    for (v1, m1, l1), (v2, m2, l2) in zip(rows(base), rows(doubled)):
        assert (m1, l1) == (m2, l2)
        if v1 != 0.0:
            assert v2 / v1 == pytest.approx(2.0, rel=1e-12)


def test_volume_spectrum_star(tmp_path):
    code, text = run_cli(
        tmp_path,
        "--command", "volume-spectrum",
        "--input", str(FIXTURES / "star4.yaml"),
        "--max-spin", "1",
    )
    assert code == 0
    got = rows(text)
    scale = (8.0 * math.pi) ** 1.5
    expect = scale * math.sqrt(3.0 * math.sqrt(3.0) / 48.0)
    assert [m for _, m, _ in got] == [7, 2]
    assert got[1][0] == pytest.approx(expect, rel=1e-12)


def test_volume_scaling_in_gamma_and_c(tmp_path):
    _, base = run_cli(
        tmp_path,
        "--command", "volume-spectrum",
        "--input", str(FIXTURES / "star4.yaml"),
        "--max-spin", "1",
        name="b.csv",
    )
    _, scaled = run_cli(
        tmp_path,
        "--command", "volume-spectrum",
        "--input", str(FIXTURES / "star4.yaml"),
        "--max-spin", "1",
        "--gamma", "2.0",
        name="s.csv",
    )
    for (v1, _, _), (v2, _, _) in zip(rows(base), rows(scaled)):
        if v1 != 0.0:
            assert v2 / v1 == pytest.approx(2.0**1.5, rel=1e-12)
    _, withc = run_cli(
        tmp_path,
        "--command", "volume-spectrum",
        "--input", str(FIXTURES / "star4.yaml"),
        "--max-spin", "1",
        "--c", "3.0",
        name="c.csv",
    )
    assert rows(withc)[1][0] == pytest.approx(3.0 * rows(base)[1][0], rel=1e-12)


def test_volume_trivalent_graph_is_flat(tmp_path):
    code, text = run_cli(
        tmp_path,
        "--command", "volume-spectrum",
        "--input", str(FIXTURES / "theta.yaml"),
        "--max-spin", "2",
    )
    assert code == 0
    got = rows(text)
    assert len(got) == 1 and got[0][0] == 0.0


def test_flux_matrix_kinked_crossing(tmp_path):
    code, text = run_cli(
        tmp_path,
        "--command", "flux-matrix",
        "--input", str(FIXTURES / "kinked_crossing.yaml"),
    )
    assert code == 0
    got = rows(text)
    assert [(v, m) for v, m, _ in got] == [(-0.5, 4), (0.0, 8), (0.5, 4)]


def test_inner_product_rows_and_determinism(tmp_path):
    args = [
        "--command", "inner-product",
        "--input", str(FIXTURES / "theta.yaml"),
        "--samples", "4000",
        "--seed", "42",
    ]
    _, a = run_cli(tmp_path, *args, name="a.csv")
    _, b = run_cli(tmp_path, *args, name="b.csv")
    assert a == b  # fixed seed: byte-identical
    got = rows(a)
    assert got[0][0] == pytest.approx(1.0, abs=1e-12)  # exact Haar pairing
    assert got[1][0] == pytest.approx(0.0, abs=1e-12)
    est, err = got[2][0], got[4][0]
    assert abs(est - 1.0) < 5 * err
    _, c = run_cli(tmp_path, *args[:-1], "7", name="c.csv")
    assert c != a  # another seed shifts the Monte Carlo rows


def test_holonomy_closed_form(tmp_path):
    code, text = run_cli(
        tmp_path,
        "--command", "holonomy",
        "--input", str(FIXTURES / "holonomy_line.yaml"),
    )
    assert code == 0
    got = {lab: v for v, _, lab in rows(text)}
    assert got["h[0][0] re"] == pytest.approx(math.cos(1.0), abs=1e-10)
    assert got["h[0][0] im"] == pytest.approx(math.sin(1.0), abs=1e-10)
    assert got["h[0][1] re"] == 0.0
    assert got["h[1][1] im"] == pytest.approx(-math.sin(1.0), abs=1e-10)


def test_commutator_check_star(tmp_path):
    code, text = run_cli(
        tmp_path,
        "--command", "commutator-check",
        "--input", str(FIXTURES / "flux_star.yaml"),
    )
    assert code == 0
    got = rows(text)
    assert got[0][0] > 1e-6  # intersecting surfaces do not commute
    assert got[0][0] == pytest.approx(got[1][0], rel=1e-12)
    assert got[2][0] < 1e-12


def test_basis_enum_theta(tmp_path):
    code, text = run_cli(
        tmp_path,
        "--command", "basis-enum",
        "--input", str(FIXTURES / "theta.yaml"),
        "--max-spin", "2",
    )
    assert code == 0
    got = rows(text)
    assert got[-1] == (4.0, 1, "total states")
    assert all(m == 1 for _, m, _ in got)


def test_pretty_format(tmp_path, capsys):
    code = main(
        [
            "--command", "area-spectrum",
            "--input", str(FIXTURES / "one_crossing.yaml"),
            "--format", "pretty",
            "--max-spin", "1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "value" in out.splitlines()[0] and "labels" in out.splitlines()[0]
    assert "," not in out.splitlines()[1]


# ---------------------------------------------------------------------------
# exit codes


def test_exit_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("vertices: [[0, 0, 0\n")
    assert main(["--command", "holonomy", "--input", str(bad)]) == 1
    assert str(bad) in capsys.readouterr().err

    missing = tmp_path / "nope.yaml"
    assert main(["--command", "holonomy", "--input", str(missing)]) == 1
    capsys.readouterr()

    out_of_range = tmp_path / "range.yaml"
    out_of_range.write_text("vertices: [[0, 0, 0], [1, 0, 0]]\nedges:\n  - {from: 0, to: 9}\n")
    assert main(["--command", "holonomy", "--input", str(out_of_range)]) == 1
    assert "edges[0]" in capsys.readouterr().err


def test_exit_on_usage_errors(tmp_path, capsys):
    assert main(["--command", "does-not-exist", "--input", "x.yaml"]) == 1
    capsys.readouterr()
    assert main(["--command", "area-spectrum"]) == 1  # --input is required
    capsys.readouterr()
    # flags must satisfy their invariants
    assert (
        main(
            [
                "--command", "area-spectrum",
                "--input", str(FIXTURES / "one_crossing.yaml"),
                "--gamma", "-1.0",
            ]
        )
        == 1
    )
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, fixture, flags, flag",
    [
        # used to print a nan row and an inf row at exit 0
        ("area-spectrum", "one_crossing.yaml", ["--max-spin", "1", "--gamma", "1e308"], "--gamma"),
        # used to print nan rows at exit 0, with a numpy RuntimeWarning
        ("volume-spectrum", "star4.yaml", ["--max-spin", "1", "--c", "inf"], "--c"),
        # used to exit 1 with only "(34, 'Numerical result out of range')"
        ("volume-spectrum", "star4.yaml", ["--max-spin", "1", "--gamma", "1e300"], "--gamma"),
        ("volume-spectrum", "star4.yaml", ["--max-spin", "1", "--c", "1e307"], "--c"),
        # the scale (8*pi*gamma)^(3/2) is finite, but the 2j = 4 values overflow
        ("volume-spectrum", "star4.yaml", ["--max-spin", "4", "--gamma", "1.2e204"], "--gamma/--c"),
    ],
)
def test_exit_on_an_overflowing_output_scale(tmp_path, capsys, command, fixture, flags, flag):
    args = ["--command", command, "--input", str(FIXTURES / fixture), *flags]
    code, text = run_cli(tmp_path, *args)
    err = capsys.readouterr().err
    assert code == 1 and text == ""
    assert err.startswith(f"error: {flag}: ") and "Traceback" not in err


@pytest.mark.parametrize("record", ["2m: -1", "2n: 7", "2m: -1, 2n: 7"])
def test_exit_on_magnetic_labels_in_an_intertwiner_state(tmp_path, capsys, record):
    # the intertwiners fix the magnetic labels; these fields used to be ignored
    text = (FIXTURES / "theta.yaml").read_text()
    doc = tmp_path / "theta.yaml"
    doc.write_text(text.replace("{edge: 0, 2j: 1}", f"{{edge: 0, 2j: 1, {record}}}", 1))
    code, out = run_cli(tmp_path, "--command", "inner-product", "--input", str(doc))
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert "states[0].edges[0]: field '2" in err


def test_exit_missing_sections(tmp_path, capsys):
    doc = tmp_path / "nosurf.yaml"
    doc.write_text("vertices: [[0, 0, -1], [0, 0, 1]]\nedges:\n  - {from: 0, to: 1}\n")
    assert main(["--command", "area-spectrum", "--input", str(doc)]) == 1
    assert "surface" in capsys.readouterr().err


def test_exit_geometric_ill_posedness(tmp_path, capsys):
    doc = tmp_path / "boundary.yaml"
    doc.write_text(
        "vertices: [[2.0, 0.0, -1.0], [2.0, 0.0, 1.0]]\n"
        "edges:\n  - {from: 0, to: 1}\n"
        "surfaces:\n"
        "  - base: [0.0, 0.0, 0.0]\n"
        "    normal: [0.0, 0.0, 1.0]\n"
        "    polygon: [[-2, -2, 0], [2, -2, 0], [2, 2, 0], [-2, 2, 0]]\n"
    )
    assert main(["--command", "area-spectrum", "--input", str(doc)]) == 2
    assert "geometry error" in capsys.readouterr().err


def test_bad_intertwiner_index(tmp_path, capsys):
    doc = tmp_path / "states.yaml"
    doc.write_text(
        "vertices: [[0, 0, 0], [1, 0, 0]]\n"
        "edges:\n"
        "  - {from: 0, to: 1}\n"
        "  - {from: 0, to: 1, polyline: [[0, 0, 0], [0.5, 0.7, 0], [1, 0, 0]]}\n"
        "  - {from: 0, to: 1, polyline: [[0, 0, 0], [0.5, 0, 0.7], [1, 0, 0]]}\n"
        "states:\n"
        "  - edges:\n"
        "      - {edge: 0, 2j: 1}\n"
        "      - {edge: 1, 2j: 1}\n"
        "      - {edge: 2, 2j: 2}\n"
        "    intertwiners: [0, 5]\n"
        "  - edges:\n"
        "      - {edge: 0, 2j: 1, 2m: 1, 2n: 1}\n"
    )
    assert main(["--command", "inner-product", "--input", str(doc)]) == 1
    assert "intertwiners" in capsys.readouterr().err


MELON = (
    "vertices: [[0, 0, 0], [1, 0, 0]]\n"
    "edges:\n"
    "  - {from: 0, to: 1, polyline: [[0, 0, 0], [0.5, 0.7, 0], [1, 0, 0]]}\n"
    "  - {from: 0, to: 1, polyline: [[0, 0, 0], [0.5, -0.7, 0], [1, 0, 0]]}\n"
    "  - {from: 0, to: 1, polyline: [[0, 0, 0], [0.5, 0, 0.7], [1, 0, 0]]}\n"
    "  - {from: 0, to: 1, polyline: [[0, 0, 0], [0.5, 0, -0.7], [1, 0, 0]]}\n"
)
MONOMIALS = MELON + (
    "states:\n"
    "  - edges: [{RECORD}, {edge: 1, 2j: 1}]\n"
    "  - edges: [{edge: 0, 2j: 1}, {edge: 1, 2j: 1}]\n"
)
INTERTWINER_STATE = (
    "  - edges: [{edge: 0, 2j: 1}, {edge: 1, 2j: 1}, {edge: 2, 2j: 1}, {edge: 3, 2j: 1}]\n"
    "    intertwiners: "
)
KINKED = (FIXTURES / "kinked_crossing.yaml").read_text()

# field: (command, job with a VALUE slot, a value of the wrong kind, where the
# error must point).  A YAML boolean must not pass as an integer, nor a string
# as a YAML boolean: bool("false") is True.
WRONG_KIND = {
    "edge": (
        "holonomy",
        "vertices: [[0, 0, 0], [1, 0, 0], [1, 1, 0]]\n"
        "edges: [{from: 0, to: 1}, {from: 1, to: 2}]\n"
        "edge: VALUE\n"
        "connection: {matrix: [[0, 0, 0], [0, 0, 0], [2, 0, 0]]}\n",
        "true", ": edge:",
    ),
    "states.edge": (
        "inner-product", MONOMIALS.replace("RECORD", "edge: VALUE, 2j: 1"),
        "true", "states[0].edges[0]: field 'edge'",
    ),
    "states.2j": (
        "inner-product", MONOMIALS.replace("RECORD", "edge: 0, 2j: VALUE"),
        "true", "states[0].edges[0]: field '2j'",
    ),
    "states.2m": (
        "inner-product", MONOMIALS.replace("RECORD", "edge: 0, 2j: 1, 2m: VALUE"),
        "true", "states[0].edges[0]: field '2m'",
    ),
    "states.2n": (
        "inner-product", MONOMIALS.replace("RECORD", "edge: 0, 2j: 1, 2n: VALUE"),
        "true", "states[0].edges[0]: field '2n'",
    ),
    "basis.2j": (
        "flux-matrix", KINKED.replace("2j: [1, 1]", "2j: [VALUE, 1]"),
        "true", "basis.2j[0]:",
    ),
    "intertwiners": (
        "inner-product", MELON + "states:\n" + INTERTWINER_STATE + "[VALUE, 0]\n"
        + INTERTWINER_STATE + "[0, 0]\n",
        "true", "states[0].intertwiners[0]:",
    ),
    "gauge_invariant": (
        "basis-enum", (FIXTURES / "theta.yaml").read_text() + "gauge_invariant: VALUE\n",
        '"false"', ": gauge_invariant:",
    ),
    "basis.gauge_invariant": (
        "flux-matrix", KINKED.replace("gauge_invariant: false", "gauge_invariant: VALUE"),
        '"false"', "basis.gauge_invariant:",
    ),
}


@pytest.mark.parametrize("field", WRONG_KIND)
def test_exit_on_a_value_of_the_wrong_kind(tmp_path, capsys, field):
    command, job, wrong, location = WRONG_KIND[field]
    doc = tmp_path / "job.yaml"
    doc.write_text(job.replace("VALUE", wrong))
    code, text = run_cli(tmp_path, "--command", command, "--input", str(doc))
    assert code == 1 and text == ""
    assert location in capsys.readouterr().err


def test_intertwiner_indices_select_row_major_over_the_vertices():
    # vertex 0 varies slowest: indices [1, 0] pick the third of the 2 x 2 states
    doc = yaml.safe_load(MELON + "states:\n" + INTERTWINER_STATE + "[1, 0]\n")
    graph = cli._build_graph(doc, "job")
    want = states_for_spins(graph, [HalfInt(1)] * 4)
    got = cli._build_state(doc["states"][0], graph, "states[0]")
    assert got.coefficients == want[2].fun.coefficients


def _build_state_reference(graph, spins, idx):
    """The rule ``cli._build_state`` used before it built only the chosen
    state: build every gauge-invariant state, read the grid size off the
    distinct vertex labels, and index the flat list row-major."""
    states = states_for_spins(graph, spins, gauge_invariant=True)
    dims = [len(set(labels)) for labels in zip(*(s.vertex_labels for s in states))]
    return states[int(np.ravel_multi_index(idx, dims))].fun


# midpoints of the arcs of a melon graph from (0, 0, 0) to (1, 0, 0); None is the straight edge
MELON_BENDS = [None, (0.5, 0.7, 0.0), (0.5, -0.7, 0.0), (0.5, 0.0, 0.7), (0.5, 0.0, -0.7)]
STAR_TIPS = [(1.0, 0.2, 0.3), (-0.4, 1.0, 0.2), (-0.6, -0.7, 0.5), (0.3, -0.4, -1.0)]


@st.composite
def _intertwiner_jobs(draw):
    """A melon graph of 2-5 arcs (3 is the theta graph) or a 1-4-valent
    star, with random edge orientations and twice-spins, plus intertwiner
    indices drawn inside the option grid when the spins admit a state."""
    kind = draw(st.sampled_from(["melon", "melon", "melon", "star"]))
    if kind == "melon":
        n = draw(st.integers(2, 5))
        vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        specs = [(0, 1)] + [
            (0, 1, np.array([[0.0, 0.0, 0.0], bend, [1.0, 0.0, 0.0]])) for bend in MELON_BENDS[1:n]
        ]
    else:
        n = draw(st.integers(1, 4))
        vertices = np.vstack([np.zeros(3), STAR_TIPS[:n]])
        specs = [(0, i + 1) for i in range(n)]
    flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    specs = [(s[1], s[0], *(p[::-1] for p in s[2:])) if f else s for s, f in zip(specs, flips)]
    graph = EmbeddedGraph.build(vertices, specs)
    top = 3 if n <= 4 else 2
    twice = draw(st.lists(st.integers(1, top), min_size=n, max_size=n))
    if kind == "melon" and sum(twice) % 2:  # an odd total has no intertwiner
        twice[-1] += 1 if twice[-1] < top else -1
    states = states_for_spins(graph, [HalfInt(t) for t in twice])
    dims = [len(set(labels)) for labels in zip(*(s.vertex_labels for s in states))]
    idx = [draw(st.integers(0, d - 1)) for d in dims]
    return graph, twice, idx if states else None


@settings(max_examples=60, deadline=None)
@given(_intertwiner_jobs())
def test_build_state_matches_the_build_every_state_rule(job):
    graph, twice, idx = job
    entry = {
        "edges": [{"edge": e, "2j": t} for e, t in enumerate(twice)],
        "intertwiners": idx if idx is not None else [0, 0],
    }
    if idx is None:
        with pytest.raises(cli.ParseError, match="no gauge-invariant state exists"):
            cli._build_state(entry, graph, "states[0]")
        return
    got = cli._build_state(entry, graph, "states[0]").coefficients
    want = _build_state_reference(graph, [HalfInt(t) for t in twice], idx).coefficients
    assert list(got) == list(want)
    for g, w in zip(got.values(), want.values()):
        assert (g.real.hex(), g.imag.hex()) == (w.real.hex(), w.imag.hex())


SIX_SPIN_ONE_EDGES = (
    "vertices: [[0, 0, 0], [1, 0, 0]]\n"
    "edges:\n"
    + "".join(
        f"  - {{from: 0, to: 1, polyline: [[0, 0, 0], {list(bend)}, [1, 0, 0]]}}\n"
        for bend in MELON_BENDS[1:] + [(0.5, 0.5, 0.5)]
    )
    + "  - {from: 1, to: 0, polyline: [[1, 0, 0], [0.5, -0.5, -0.5], [0, 0, 0]]}\n"
    + "states:\n"
    + ("  - edges: [" + ", ".join(f"{{edge: {e}, 2j: 2}}" for e in range(6)) + "]\n"
       "    intertwiners: [3, 7]\n") * 2
)


def test_intertwiner_state_builds_only_the_chosen_state(tmp_path, monkeypatch):
    # 15 x 15 options on two vertices: one combination per listed state, not 225
    calls = []
    combine = cyl._state_from_options

    def counted(*args, **kwargs):
        calls.append(args[2])
        return combine(*args, **kwargs)

    monkeypatch.setattr(cyl, "_state_from_options", counted)
    monkeypatch.setattr(cli, "_state_from_options", counted)
    doc = tmp_path / "six.yaml"
    doc.write_text(SIX_SPIN_ONE_EDGES)
    code, text = run_cli(tmp_path, "--command", "inner-product", "--input", str(doc))
    assert code == 0 and rows(text)[0][0] == pytest.approx(1.0, abs=1e-12)
    assert [[label for label, _ in combo] for combo in calls] == [
        [intertwiner_basis([HalfInt(2)] * 6).trees[k] for k in (3, 7)]
    ] * 2


# a square loop whose vertex 1 sits straight through on its bottom side
STRAIGHT_THROUGH = (
    "vertices: [[0, 0, 0], [0.5, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]\n"
    "edges:\n"
    + "".join(f"  - {{from: {v}, to: {(v + 1) % 5}}}\n" for v in range(5))
)


@pytest.mark.parametrize(
    "job, gauge_invariant, max_spin",
    [
        ("theta", True, 3),  # 2j = (1, 1, 1) and others have no intertwiner
        ("theta", False, 2),
        ("star4", True, 2),
        ("star4", False, 1),
        ("straight-through", True, 2),  # a spurious vertex: no invariant state at all
        ("straight-through", False, 1),  # recoupled (J, M) pairs there
    ],
)
def test_basis_enum_counts_equal_the_built_states(tmp_path, job, gauge_invariant, max_spin):
    text = STRAIGHT_THROUGH if job == "straight-through" else (FIXTURES / f"{job}.yaml").read_text()
    doc = tmp_path / "job.yaml"
    doc.write_text(text + f"gauge_invariant: {str(gauge_invariant).lower()}\n")
    code, out = run_cli(
        tmp_path, "--command", "basis-enum", "--input", str(doc), "--max-spin", str(max_spin)
    )
    assert code == 0
    graph = cli._build_graph(yaml.safe_load(text), "job")
    want = []
    for twice in itertools.product(range(1, max_spin + 1), repeat=graph.n_edges):
        spins = [HalfInt(t) for t in twice]
        n = len(states_for_spins(graph, spins, gauge_invariant))
        if n:
            want.append((float(n), 1, " ".join(f"e{e}={j}" for e, j in enumerate(spins))))
    want.append((sum(n for n, _, _ in want), 1, "total states"))
    assert rows(out) == want
    if job == "straight-through" and gauge_invariant:
        assert want == [(0, 1, "total states")]


HOLONOMY_NAN_MATRIX = "connection:\n  matrix: [[0.0, 0.0, 0.0], [0.0, .nan, 0.0], [2.0, 0.0, 0.0]]\n"


def test_exit_on_non_finite_connection(tmp_path, capsys):
    # one straight edge: used to print eight nan rows and exit 0
    doc = tmp_path / "nan_line.yaml"
    doc.write_text(
        "vertices: [[0, 0, 0], [1, 0, 0]]\nedges:\n  - {from: 0, to: 1}\n" + HOLONOMY_NAN_MATRIX
    )
    code, text = run_cli(tmp_path, "--command", "holonomy", "--input", str(doc))
    assert code == 1 and text == ""
    assert "connection.matrix" in capsys.readouterr().err


def test_exit_on_non_finite_connection_polyline(tmp_path, capsys):
    # a two-segment edge: used to double the step count toward 2**20 steps
    doc = tmp_path / "nan_polyline.yaml"
    doc.write_text(
        "vertices: [[0, 0, 0], [1, 0, 0]]\n"
        "edges:\n  - {from: 0, to: 1, polyline: [[0, 0, 0], [0.5, 0.7, 0], [1, 0, 0]]}\n"
        + HOLONOMY_NAN_MATRIX
    )
    code, text = run_cli(tmp_path, "--command", "holonomy", "--input", str(doc))
    assert code == 1 and text == ""
    assert "connection.matrix" in capsys.readouterr().err


@pytest.mark.parametrize(
    "exc",
    [
        RuntimeError("holonomy did not converge: residual 1e-3 at 16384 steps"),
        ArithmeticError("flux matrix failed the Hermiticity check: 1e-9"),
    ],
)
def test_exit_on_numerical_failure(monkeypatch, capsys, exc):
    def fail(doc, graph, config, path):
        raise exc

    monkeypatch.setitem(cli._RUNNERS, "holonomy", fail)
    code = main(["--command", "holonomy", "--input", str(FIXTURES / "holonomy_line.yaml")])
    err = capsys.readouterr().err
    assert code == 1
    assert str(exc) in err and "Traceback" not in err


def test_job_too_large_for_memory_exits_1(tmp_path):
    # 6 561 basis states: the 657 MiB operator matrix cannot be allocated
    # under a 600 MiB address-space limit, set in the child process only
    job = tmp_path / "big.yaml"
    text = (FIXTURES / "kinked_crossing.yaml").read_text()
    job.write_text(text.replace("2j: [1, 1]", "2j: [8, 8]"))
    limit = 600 * 2**20
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")  # few thread buffers under the limit
    proc = subprocess.run(
        [sys.executable, "-m", "spinnet.cli", "--command", "flux-matrix", "--input", str(job)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {job}: out of memory")


FLUX_STAR = (FIXTURES / "flux_star.yaml").read_text()


@pytest.mark.parametrize(
    "field, old, new",
    [
        ("edges", FLUX_STAR[FLUX_STAR.index("edges:"):FLUX_STAR.index("surfaces:")], "edges: 5\n"),
        (
            "surfaces",
            FLUX_STAR[FLUX_STAR.index("surfaces:"):FLUX_STAR.index("smearings:")],
            "surfaces: 5\n",
        ),
        ("states[0].edges", FLUX_STAR[FLUX_STAR.index("  - edges:"):], "  - edges: 3\n"),
    ],
    ids=["edges", "surfaces", "state-edges"],
)
def test_exit_on_wrong_shape(tmp_path, capsys, field, old, new):
    # each of these used to end in a TypeError traceback
    doc = tmp_path / "shape.yaml"
    doc.write_text(FLUX_STAR.replace(old, new))
    code, text = run_cli(tmp_path, "--command", "commutator-check", "--input", str(doc))
    err = capsys.readouterr().err
    assert code == 1 and text == ""
    assert f"{field}: expected a list" in err and "Traceback" not in err


STAR4 = (FIXTURES / "star4.yaml").read_text()


@pytest.mark.parametrize("region", ["5", "[0.5]", "[true]"], ids=["int", "float", "bool"])
def test_exit_on_bad_region(tmp_path, capsys, region):
    # `5` used to end in a TypeError traceback; `[0.5]` and `[true]` silently
    # ran vertex 0 and vertex 1
    doc = tmp_path / "region.yaml"
    doc.write_text(STAR4.replace("region: [0]", f"region: {region}"))
    code, text = run_cli(tmp_path, "--command", "volume-spectrum", "--input", str(doc))
    err = capsys.readouterr().err
    assert code == 1 and text == ""
    assert "region: expected 'all' or a list of vertex ids" in err and "Traceback" not in err


def test_exit_on_spin_above_monte_carlo_ceiling(tmp_path, capsys):
    # the Monte Carlo rows evaluate D^j entry by entry, which has a spin ceiling
    over = WIGNER_ENTRY_MAX_TWICE + 1
    doc = tmp_path / "high-spin.yaml"
    doc.write_text(
        "vertices: [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]\n"
        "edges:\n  - {from: 0, to: 1}\n"
        "states:\n"
        f"  - edges: [{{edge: 0, 2j: {over}}}]\n"
        f"  - edges: [{{edge: 0, 2j: {over}}}]\n"
    )
    code, text = run_cli(
        tmp_path, "--command", "inner-product", "--input", str(doc), "--samples", "10"
    )
    err = capsys.readouterr().err
    assert code == 1 and text == ""
    assert f"2j = {over} is above the accuracy limit 2j <= {WIGNER_ENTRY_MAX_TWICE}" in err
    assert "Traceback" not in err


GOLDEN = Path(__file__).resolve().parent / "golden"

# the seven command lines of the README; golden/<command>.csv holds the stdout
README_COMMANDS = [
    ["--command", "area-spectrum", "--input", "one_crossing.yaml", "--max-spin", "2"],
    ["--command", "volume-spectrum", "--input", "star4.yaml", "--max-spin", "1",
     "--gamma", "0.2375"],
    ["--command", "flux-matrix", "--input", "kinked_crossing.yaml"],
    ["--command", "inner-product", "--input", "theta.yaml", "--samples", "100000",
     "--seed", "7"],
    ["--command", "holonomy", "--input", "holonomy_line.yaml"],
    ["--command", "commutator-check", "--input", "flux_star.yaml"],
    ["--command", "basis-enum", "--input", "theta.yaml", "--max-spin", "2"],
]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[1])
def test_readme_commands_match_golden_output(capsys, argv):
    argv = list(argv)
    argv[3] = str(FIXTURES / argv[3])
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{argv[1]}.csv").read_text()


# two 4-valent vertices joined by four edges, three of them bent out of line,
# so both vertices carry volume and one label must stand for each summed value
TWO_VERTEX = """\
vertices: [[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]
edges:
  - {from: 0, to: 1}
  - {from: 0, to: 1, polyline: [[0, 0, 0], [-1, 1, 0], [1.5, 3, 0], [4, 1, 0], [3, 0, 0]]}
  - {from: 0, to: 1, polyline: [[0, 0, 0], [-1, -1, 1], [1.5, -3, 3], [4, -1, 1], [3, 0, 0]]}
  - {from: 1, to: 0, polyline: [[3, 0, 0], [4, -1, -1], [1.5, -3, -3], [-1, -1, -1], [0, 0, 0]]}
region: all
"""


def test_two_vertex_volume_spectrum_matches_golden_output(tmp_path, capsys):
    doc = tmp_path / "two_vertex.yaml"
    doc.write_text(TWO_VERTEX)
    argv = ["--command", "volume-spectrum", "--input", str(doc), "--max-spin", "3"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "volume-spectrum-two-vertex.csv").read_text()
