"""Text formats: polytopes, PL functions, mesh functions, and reports.

Numbers are written with repr(float) so file round-trips are bit-exact;
reports are plain key-value lines plus named [table] sections with stable
field names and no timestamps, so identical runs produce identical bytes.
"""
from __future__ import annotations

import io

import numpy as np

from . import __version__
from .convex import AffineFunc, MeshConvexFunc, PLConvexFunc
from .mesh import make_mesh
from .polytope import Polytope, build_polytope


def _fmt(x):
    if isinstance(x, (np.floating, float)):
        return repr(float(x))
    if isinstance(x, (np.integer, int)):
        return str(int(x))
    return str(x)


def _numbers(key, text):
    """The numbers on one `key:` line; an empty line, NaN and infinities are refused."""
    vals = [float(v) for v in text.split()]
    if not vals:
        raise ValueError(f"{key!r} line has no numbers")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{key!r} line has a non-finite number: {text!r}")
    return vals


# -- polytope files ----------------------------------------------------------

def polytope_to_text(P: Polytope) -> str:
    out = ["# polystab polytope", f"dimension: {P.dimension}"]
    if P.name:
        out.append(f"name: {P.name}")
    for h, c in zip(P.normals, P.offsets):
        comps = " ".join(_fmt(v) for v in h)
        out.append(f"facet: {comps} {_fmt(c)}")
    return "\n".join(out) + "\n"


def _entries(text):
    """(key, rest) of every line that is neither blank nor a # comment, split
    at its first ':' and stripped."""
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, rest = line.partition(":")
            yield key.strip(), rest.strip()


def _polytope(entries) -> Polytope:
    dim = None
    name = None
    facets = []
    for key, rest in entries:
        if key == "dimension":
            dim = int(rest)
        elif key == "name":
            name = rest
        elif key == "facet":
            vals = _numbers(key, rest)
            facets.append((tuple(vals[:-1]), vals[-1]))
        else:
            raise ValueError(f"unknown polytope file key {key!r}")
    if dim is None:
        raise ValueError("polytope file lacks a dimension line")
    for h, _ in facets:
        if len(h) != dim:
            raise ValueError("facet normal length does not match dimension")
    return build_polytope(facets, name=name)


def polytope_from_text(text: str) -> Polytope:
    return _polytope(_entries(text))


def write_polytope(P: Polytope, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(polytope_to_text(P))


def read_polytope(path) -> Polytope:
    with open(path, "r", encoding="utf-8") as fh:
        return polytope_from_text(fh.read())


# -- piecewise-linear functions ----------------------------------------------

def pl_to_text(u: PLConvexFunc) -> str:
    out = ["# polystab pl-function", f"dimension: {u.dimension}"]
    for p in u.pieces:
        comps = " ".join(_fmt(v) for v in p.a)
        out.append(f"piece: {comps} {_fmt(p.a0)}")
    return "\n".join(out) + "\n"


def pl_from_text(text: str) -> PLConvexFunc:
    dim = None
    pieces = []
    for key, rest in _entries(text):
        if key == "dimension":
            dim = int(rest)
        elif key == "piece":
            vals = _numbers(key, rest)
            pieces.append(AffineFunc(vals[-1], tuple(vals[:-1])))
        else:
            raise ValueError(f"unknown pl-function key {key!r}")
    if dim is None or not pieces:
        raise ValueError("pl-function file needs a dimension and pieces")
    if any(len(p.a) != dim for p in pieces):
        raise ValueError("piece gradient length does not match dimension")
    return PLConvexFunc(tuple(pieces))


def write_pl_function(u: PLConvexFunc, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pl_to_text(u))


def read_pl_function(path) -> PLConvexFunc:
    with open(path, "r", encoding="utf-8") as fh:
        return pl_from_text(fh.read())


# -- mesh functions ------------------------------------------------------------

def mesh_function_to_text(u: MeshConvexFunc) -> str:
    out = ["# polystab mesh-function", polytope_to_text(u.mesh.polytope).strip(),
           f"h: {_fmt(u.mesh.h)}"]
    if u.mesh.point_vertex is not None:  # the mesh was made through this point
        out.append("point: " + " ".join(_fmt(v) for v in u.mesh.vertices[u.mesh.point_vertex]))
    if u.p_o_index is not None:
        out.append(f"p_o_index: {u.p_o_index}")
    out.append("values: " + " ".join(_fmt(v) for v in u.values))
    return "\n".join(out) + "\n"


def mesh_function_from_text(text: str) -> MeshConvexFunc:
    poly_entries = []
    h = p_o = point = values = None
    for key, rest in _entries(text):
        if key in ("dimension", "name", "facet"):
            poly_entries.append((key, rest))
        elif key == "h":
            (h,) = _numbers(key, rest)
        elif key == "point":
            point = _numbers(key, rest)
        elif key == "p_o_index":
            p_o = int(rest)
        elif key == "values":
            values = np.array(_numbers(key, rest))
        else:
            raise ValueError(f"unknown mesh-function key {key!r}")
    if h is None or values is None:
        raise ValueError("mesh-function file needs h and values")
    P = _polytope(poly_entries)
    mesh = make_mesh(P, h, point=point)
    if mesh.num_vertices != len(values):
        raise ValueError("value count does not match the deterministic mesh")
    return MeshConvexFunc(mesh, values, p_o_index=p_o)


def write_mesh_function(u: MeshConvexFunc, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mesh_function_to_text(u))


def read_mesh_function(path) -> MeshConvexFunc:
    with open(path, "r", encoding="utf-8") as fh:
        return mesh_function_from_text(fh.read())


# -- reports -------------------------------------------------------------------

class Report:
    """Key-value report with named tables, rendered deterministically."""

    def __init__(self, command: str):
        self.command = command
        self.items: list = [("polystab-report", command), ("version", __version__)]

    def add(self, key, value):
        self.items.append((str(key), _fmt(value)))
        return self

    def section(self, name):
        self.items.append(("__section__", str(name)))
        return self

    def table(self, name, columns, rows):
        self.items.append(("__table__", (str(name), list(columns),
                                         [[_fmt(v) for v in row] for row in rows])))
        return self

    def render(self) -> str:
        buf = io.StringIO()
        for key, value in self.items:
            if key == "__section__":
                buf.write(f"\n[{value}]\n")
            elif key == "__table__":
                name, cols, rows = value
                buf.write(f"\n[table {name}]\n")
                buf.write("  ".join(cols) + "\n")
                for row in rows:
                    buf.write("  ".join(row) + "\n")
            else:
                buf.write(f"{key}: {value}\n")
        return buf.getvalue()


def tolerance_section(report: Report, tolerances: dict):
    report.section("tolerances")
    for key in sorted(tolerances):
        report.add(key, tolerances[key])
    return report
