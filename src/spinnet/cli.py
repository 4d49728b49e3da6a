"""Command-line front end: parse job documents, run computations, emit tables.

A job is one YAML document describing the geometry and data (graph, surfaces,
states, connection, smearings) plus command-line knobs (command, gamma, c,
max spin, seed, samples, output format).  Every command emits rows of
``value,multiplicity,labels``; non-spectral commands use multiplicity 1 and a
descriptive label per row.

Spectra are scaled on output: area values by 4*pi*gamma and volume values by
(8*pi*gamma)^(3/2) (lP = 1), so the numbers printed are in Planck units with
the Immirzi parameter applied.  Exit codes: 0 success, 1 parse/validation
error with a location-bearing message or a numerical failure (a failed
Hermiticity check, a holonomy over its step budget), 2 geometric
ill-posedness.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np
import yaml

from .cyl import (
    Connection,
    CylFun,
    holonomy,
    inner_product,
    mc_inner_product,
    states_for_spins,
)
from .cyl import _state_from_options, _vertex_options
from .graphs import (
    EmbeddedGraph,
    IllPosedIntersectionError,
    InvalidGraphError,
    NonConformingOverlapError,
    Surface,
    ensure_valid,
)
from .operators import (
    FluxSpec,
    Spectrum,
    area_spectrum,
    flux_commutator,
    flux_commutator_closed_form,
    flux_matrix,
    volume_spectrum,
)
from .su2 import HalfInt

__all__ = ["JobConfig", "run", "main"]

COMMANDS = (
    "area-spectrum",
    "volume-spectrum",
    "inner-product",
    "holonomy",
    "flux-matrix",
    "commutator-check",
    "basis-enum",
)


class ParseError(Exception):
    """Input problem with a document location attached."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


@dataclass
class JobConfig:
    command: str
    input_path: str
    gamma: float = 1.0
    c: float = 1.0
    max_spin: HalfInt = HalfInt(1)
    seed: int = 0
    samples: int = 1
    output_path: Optional[str] = None
    fmt: str = "csv"

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ParseError("--command", f"unknown command {self.command!r}")
        if not 0 < self.gamma < math.inf:
            raise ParseError("--gamma", "the Immirzi parameter must be positive and finite")
        if not 0 < self.c < math.inf:
            raise ParseError("--c", "the volume constant must be positive and finite")
        # (8*pi*gamma)^(3/2) overflows long before 4*pi*gamma, so this bounds both scales
        if _volume_unit(self.gamma) == math.inf:
            raise ParseError("--gamma", "the output scale (8*pi*gamma)^(3/2) overflows")
        if _volume_unit(self.gamma) * self.c == math.inf:
            raise ParseError("--c", "the output scale (8*pi*gamma)^(3/2) * c overflows")
        if not _is_int(self.samples):
            raise ParseError("--samples", f"need an integer sample count, got {self.samples!r}")
        if self.samples < 1:
            raise ParseError("--samples", "need at least one sample")
        if self.fmt not in ("csv", "pretty"):
            raise ParseError("--format", f"unknown format {self.fmt!r}")


def _volume_unit(gamma: float) -> float:
    try:
        return (8.0 * math.pi * gamma) ** 1.5
    except OverflowError:  # float ** raises where float * gives inf
        return math.inf


# ---------------------------------------------------------------------------
# document parsing


def _load_document(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ParseError(path, str(exc)) from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else path
        raise ParseError(where, f"not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(path, "the job document must be a mapping")
    return doc


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ParseError(f"{path}: {key}", "required section is missing")
    return doc[key]


def _as_list(value, loc: str) -> list:
    if not isinstance(value, list):
        raise ParseError(loc, "expected a list")
    return value


def _as_float_array(value, loc: str, shape=None) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(loc, f"expected numbers, got {value!r}") from exc
    if shape is not None and arr.shape != shape:
        raise ParseError(loc, f"expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ParseError(loc, "expected finite numbers, got NaN or infinity")
    return arr


def _build_graph(doc: dict, path: str) -> EmbeddedGraph:
    verts = _require(doc, "vertices", path)
    vertices = _as_float_array(verts, f"{path}: vertices")
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise ParseError(f"{path}: vertices", "expected a list of [x, y, z] points")
    edge_entries = _as_list(_require(doc, "edges", path), f"{path}: edges")
    specs = []
    for i, entry in enumerate(edge_entries):
        loc = f"{path}: edges[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(loc, "expected a mapping with from/to")
        try:
            s, t = int(entry["from"]), int(entry["to"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(loc, "needs integer 'from' and 'to' vertex ids") from exc
        for v in (s, t):
            if not 0 <= v < len(vertices):
                raise ParseError(loc, f"vertex id {v} out of range")
        if "polyline" in entry:
            poly = _as_float_array(entry["polyline"], f"{loc}.polyline")
            if poly.ndim != 2 or poly.shape[1] != 3 or poly.shape[0] < 2:
                raise ParseError(f"{loc}.polyline", "expected at least two [x, y, z] points")
            specs.append((s, t, poly))
        else:
            specs.append((s, t))
    try:
        return EmbeddedGraph.build(vertices, specs)
    except ValueError as exc:
        raise ParseError(f"{path}: edges", str(exc)) from exc


def _build_surface(entry, loc: str) -> Surface:
    if not isinstance(entry, dict):
        raise ParseError(loc, "expected a mapping with base/normal/polygon")
    base = _as_float_array(_require(entry, "base", loc), f"{loc}.base", (3,))
    normal = _as_float_array(_require(entry, "normal", loc), f"{loc}.normal", (3,))
    polygon = _as_float_array(_require(entry, "polygon", loc), f"{loc}.polygon")
    if polygon.ndim != 2 or polygon.shape[1] != 3 or polygon.shape[0] < 3:
        raise ParseError(f"{loc}.polygon", "expected at least three [x, y, z] points")
    try:
        return Surface(base, normal, polygon)
    except ValueError as exc:
        raise ParseError(loc, str(exc)) from exc


def _surfaces(doc: dict, path: str, need: int) -> list[Surface]:
    entries = _as_list(doc.get("surfaces", []), f"{path}: surfaces")
    if len(entries) < need:
        raise ParseError(
            f"{path}: surfaces", f"this command needs {need} surface(s), found {len(entries)}"
        )
    return [_build_surface(e, f"{path}: surfaces[{i}]") for i, e in enumerate(entries)]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _flag(entry: dict, key: str, loc: str, default: bool) -> bool:
    value = entry.get(key, default)
    if not isinstance(value, bool):
        raise ParseError(loc, f"expected true or false, got {value!r}")
    return value


def _int_field(rec: dict, key: str, loc: str, default=None) -> int:
    if key not in rec:
        if default is None:
            raise ParseError(loc, f"missing integer field {key!r}")
        return default
    v = rec[key]
    if not _is_int(v):
        raise ParseError(loc, f"field {key!r} must be an integer, got {v!r}")
    return v


def _build_state(entry, graph: EmbeddedGraph, loc: str):
    """One state: a product monomial, or spins plus per-vertex intertwiner indices."""
    if not isinstance(entry, dict) or "edges" not in entry:
        raise ParseError(loc, "expected a mapping with an 'edges' record list")
    records = _as_list(entry["edges"], f"{loc}.edges")
    per_edge = {}
    for i, rec in enumerate(records):
        rloc = f"{loc}.edges[{i}]"
        if not isinstance(rec, dict):
            raise ParseError(rloc, "expected a mapping")
        e = _int_field(rec, "edge", rloc)
        if not 0 <= e < graph.n_edges:
            raise ParseError(rloc, f"edge id {e} out of range")
        if e in per_edge:
            raise ParseError(rloc, f"edge {e} listed twice")
        per_edge[e] = rec, rloc
    if "intertwiners" in entry:
        spins = []
        for e in range(graph.n_edges):
            if e not in per_edge:
                raise ParseError(loc, f"edge {e} has no spin record")
            rec, rloc = per_edge[e]
            for key in ("2m", "2n"):
                if key in rec:
                    raise ParseError(rloc, f"field {key!r} is fixed by the intertwiners")
            tj = _int_field(rec, "2j", rloc)
            if tj < 1:
                raise ParseError(rloc, "intertwiner states need positive spins on every edge")
            spins.append(HalfInt(tj))
        options = _vertex_options(graph, spins, gauge_invariant=True)
        if not all(options):
            raise ParseError(
                loc, "no gauge-invariant state exists for this spin assignment"
            )
        idx = entry["intertwiners"]
        if not isinstance(idx, list) or len(idx) != len(options):
            raise ParseError(
                f"{loc}.intertwiners", f"need one index per occupied vertex ({len(options)})"
            )
        for k, (i, opts) in enumerate(zip(idx, options)):
            if not _is_int(i) or not 0 <= i < len(opts):
                raise ParseError(
                    f"{loc}.intertwiners[{k}]", f"index must be an integer in [0, {len(opts)})"
                )
        chosen = [opts[i] for opts, i in zip(options, idx)]
        return _state_from_options(graph, spins, chosen, gauge_invariant=True).fun
    labels = [(0, 0, 0)] * graph.n_edges
    for e, (rec, rloc) in per_edge.items():
        tj = _int_field(rec, "2j", rloc)
        tm = _int_field(rec, "2m", rloc, default=tj)
        tn = _int_field(rec, "2n", rloc, default=tj)
        labels[e] = (tj, tm, tn)
    try:
        return CylFun(graph, {tuple(labels): 1.0 + 0j})
    except ValueError as exc:
        raise ParseError(loc, str(exc)) from exc


def _states(doc: dict, graph: EmbeddedGraph, path: str, need: int):
    entries = _as_list(doc.get("states", []), f"{path}: states")
    if len(entries) < need:
        raise ParseError(
            f"{path}: states", f"this command needs {need} state(s), found {len(entries)}"
        )
    return [_build_state(e, graph, f"{path}: states[{i}]") for i, e in enumerate(entries)]


def _smearings(doc: dict, path: str, need: int) -> list[np.ndarray]:
    if need == 1 and "smearing" in doc:
        entries = [doc["smearing"]]
    else:
        entries = _as_list(doc.get("smearings", []), f"{path}: smearings")
        if need == 1 and not entries:
            raise ParseError(f"{path}: smearing", "required section is missing")
    if len(entries) < need:
        raise ParseError(
            f"{path}: smearings", f"this command needs {need} smearing vector(s)"
        )
    return [
        _as_float_array(e, f"{path}: smearings[{i}]", (3,)) for i, e in enumerate(entries)
    ]


def _basis_spins(doc: dict, graph: EmbeddedGraph, path: str) -> list[HalfInt]:
    entry = doc.get("basis")
    if not isinstance(entry, dict) or "2j" not in entry:
        raise ParseError(f"{path}: basis", "need a mapping with a '2j' twice-spin list")
    tjs = entry["2j"]
    if not isinstance(tjs, list) or len(tjs) != graph.n_edges:
        raise ParseError(f"{path}: basis.2j", f"need one twice-spin per edge ({graph.n_edges})")
    spins = []
    for i, t in enumerate(tjs):
        if not _is_int(t) or t < 1:
            raise ParseError(f"{path}: basis.2j[{i}]", "twice-spins must be positive integers")
        spins.append(HalfInt(t))
    return spins


# ---------------------------------------------------------------------------
# commands -> rows


def _spectrum_rows(spec: Spectrum, scale: float, flags: str) -> list[tuple]:
    rows = [(scale * e.value, e.multiplicity, e.labels) for e in spec]
    if not all(math.isfinite(v) for v, _, _ in rows):
        raise ParseError(flags, "a scaled spectrum value overflows")
    return rows


def _cmd_area_spectrum(doc, graph, config, path):
    surface = _surfaces(doc, path, 1)[0]
    spec = area_spectrum(graph, surface, config.max_spin)
    return _spectrum_rows(spec, 4.0 * math.pi * config.gamma, "--gamma")


def _region(doc: dict, path: str):
    region = doc.get("region", "all")
    if region == "all" or (isinstance(region, list) and all(map(_is_int, region))):
        return region
    raise ParseError(f"{path}: region", f"expected 'all' or a list of vertex ids, got {region!r}")


def _cmd_volume_spectrum(doc, graph, config, path):
    try:
        spec = volume_spectrum(graph, _region(doc, path), config.max_spin, c=config.c)
    except OverflowError as exc:
        raise ParseError("--c", str(exc)) from exc
    return _spectrum_rows(spec, _volume_unit(config.gamma), "--gamma/--c")


def _cmd_inner_product(doc, graph, config, path):
    s1, s2 = _states(doc, graph, path, 2)
    exact = inner_product(s1, s2)
    est, err = mc_inner_product(s1, s2, config.samples, seed=config.seed)
    return [
        (exact.real, 1, "inner product re"),
        (exact.imag, 1, "inner product im"),
        (est.real, 1, f"monte carlo re ({config.samples} samples)"),
        (est.imag, 1, f"monte carlo im ({config.samples} samples)"),
        (err, 1, "monte carlo standard error"),
    ]


def _cmd_holonomy(doc, graph, config, path):
    entry = doc.get("connection")
    if not isinstance(entry, dict) or "matrix" not in entry:
        raise ParseError(f"{path}: connection", "need a mapping with a 3x3 'matrix'")
    mat = _as_float_array(entry["matrix"], f"{path}: connection.matrix", (3, 3))
    edge = doc.get("edge", 0)
    if not _is_int(edge) or not 0 <= edge < graph.n_edges:
        raise ParseError(f"{path}: edge", f"edge id {edge!r} out of range")
    h = holonomy(Connection(mat), graph.edges[edge].polyline).matrix
    rows = []
    for r in range(2):
        for c in range(2):
            rows.append((h[r, c].real, 1, f"h[{r}][{c}] re"))
            rows.append((h[r, c].imag, 1, f"h[{r}][{c}] im"))
    return rows


def _cmd_flux_matrix(doc, graph, config, path):
    surface = _surfaces(doc, path, 1)[0]
    f = _smearings(doc, path, 1)[0]
    spins = _basis_spins(doc, graph, path)
    gauge = _flag(doc["basis"], "gauge_invariant", f"{path}: basis.gauge_invariant", False)
    basis = states_for_spins(graph, spins, gauge_invariant=gauge)
    if not basis:
        raise ParseError(f"{path}: basis", "the requested basis is empty")
    mat = flux_matrix(FluxSpec(surface, f), basis)
    eigs = np.linalg.eigvalsh(mat)
    label = f"flux eigenvalue (basis dim {len(basis)})"
    return [
        (e.value, e.multiplicity, label)
        for e in Spectrum.from_samples((float(v), 1, label) for v in eigs)
    ]


def _cmd_commutator_check(doc, graph, config, path):
    surfs = _surfaces(doc, path, 2)
    f1, f2 = _smearings(doc, path, 2)
    psi = _states(doc, graph, path, 1)[0]
    F1, F2 = FluxSpec(surfs[0], f1), FluxSpec(surfs[1], f2)
    double = flux_commutator(F1, F2, psi)
    closed = flux_commutator_closed_form(F1, F2, psi)
    return [
        (double.norm(), 1, "commutator norm (double application)"),
        (closed.norm(), 1, "commutator norm (closed-form vertex sum)"),
        ((double - closed).norm(), 1, "deviation between the two computations"),
    ]


def _cmd_basis_enum(doc, graph, config, path):
    gauge = _flag(doc, "gauge_invariant", f"{path}: gauge_invariant", True)
    tmax = config.max_spin.twice
    if tmax < 1:
        raise ParseError("--max-spin", "must be at least 1 (twice-value)")
    # count each assignment from its per-vertex option counts, building no state
    rows = []
    for twice in itertools.product(range(1, tmax + 1), repeat=graph.n_edges):
        spins = [HalfInt(t) for t in twice]
        n = math.prod(len(opts) for opts in _vertex_options(graph, spins, gauge))
        if n:
            rows.append((float(n), 1, " ".join(f"e{e}={j}" for e, j in enumerate(spins))))
    rows.append((sum(n for n, _, _ in rows), 1, "total states"))
    return rows


_RUNNERS = {
    "area-spectrum": _cmd_area_spectrum,
    "volume-spectrum": _cmd_volume_spectrum,
    "inner-product": _cmd_inner_product,
    "holonomy": _cmd_holonomy,
    "flux-matrix": _cmd_flux_matrix,
    "commutator-check": _cmd_commutator_check,
    "basis-enum": _cmd_basis_enum,
}


# ---------------------------------------------------------------------------
# output


def _fmt_num(v: float) -> str:
    # shortest round-trip form: deterministic and exact when re-parsed
    v = float(v)
    return "0" if v == 0.0 else repr(v)


def _render(rows, fmt: str) -> str:
    if fmt == "csv":
        lines = ["value,multiplicity,labels"]
        lines += [f"{_fmt_num(v)},{m},{lab}" for v, m, lab in rows]
    else:
        width = max([len("value")] + [len(_fmt_num(v)) for v, _, _ in rows])
        lines = [f"{'value':>{width}}  mult  labels"]
        lines += [f"{_fmt_num(v):>{width}}  {m:>4}  {lab}" for v, m, lab in rows]
    return "\n".join(lines) + "\n"


def run(config: JobConfig) -> int:
    """Execute one job; returns the process exit code."""
    config.validate()
    doc = _load_document(config.input_path)
    graph = _build_graph(doc, config.input_path)
    ensure_valid(graph)
    rows = _RUNNERS[config.command](doc, graph, config, config.input_path)
    text = _render(rows, config.fmt)
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spinnet",
        description="Spin-network geometry: spectra, holonomies and flux algebra.",
    )
    p.add_argument("--command", required=True, choices=COMMANDS)
    p.add_argument("--input", required=True, help="job document (YAML)")
    p.add_argument("--gamma", type=float, default=1.0, help="Immirzi parameter")
    p.add_argument("--c", type=float, default=1.0, help="volume operator constant")
    p.add_argument(
        "--max-spin", type=int, default=1, metavar="TWICE_J",
        help="largest spin as a twice-value integer (1 means j=1/2)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--output", default=None, help="output file (default stdout)")
    p.add_argument("--format", default="csv", choices=("csv", "pretty"))
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 reserved for geometry
        return 0 if not exc.code else 1
    config = JobConfig(
        command=args.command,
        input_path=args.input,
        gamma=args.gamma,
        c=args.c,
        max_spin=HalfInt(args.max_spin),
        seed=args.seed,
        samples=args.samples,
        output_path=args.output,
        fmt=args.format,
    )
    try:
        return run(config)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IllPosedIntersectionError, NonConformingOverlapError, InvalidGraphError) as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        # bad values, failed Hermiticity checks, holonomy step budget overrun
        print(f"error: {config.input_path}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a job too large for this machine, such as a flux-matrix basis of thousands of states
        print(f"error: {config.input_path}: out of memory: {exc or 'no detail'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
