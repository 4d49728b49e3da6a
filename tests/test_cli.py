"""End-to-end runs of the command-line front end against the shipped job
documents, plus the exit-code contract."""

import math
from pathlib import Path

import pytest

from spinnet import cli
from spinnet.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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
