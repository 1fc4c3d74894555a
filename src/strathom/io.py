"""JSON ingestion and canonical serialization for the file formats.

Three input shapes are understood:

* triangulation files: ``{"vertices": [...], "top_simplices": [[...]],
  "sigma": [...]?, "boundary": [[...]]?, "orientation": [+-1]?}``.  Faces
  are generated by closure; labels are strings; an ``orientation`` list is
  aligned with the listed top simplices.  When ``sigma`` is present the
  codimension defaults to dim(complex) - dim(sigma subcomplex) and can be
  overridden with ``codim``.
* space files: ``{"kind": "algebraic" | "suspension_product" |
  "isolated_cone", ...}`` carrying Betti data and boundary-restriction
  matrices in the Kunneth block order (blocks by ascending stratum degree,
  pairs lexicographic inside a block).  Matrix entries are integers or
  rational strings like ``"3/2"``.
* pairing files: ``{"degree": m, "matrix": [[...]]}``, or any triangulation
  file with ``boundary``/``orientation`` data, in which case the pairing is
  computed by the cup product in the middle degree.

Serialization is canonical: keys sorted, rationals emitted as integers when
integral and ``"p/q"`` strings otherwise, so byte-identical output means
identical data.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .chains import GradedMap, GradedVS
from .qlinalg import MatrixQ, as_rational
from .simplicial import (
    OrientedPseudomanifoldWithBoundary,
    PairingData,
    SimplicialComplex,
    StratifiedComplex,
    chain_complex_of,
    cup_pairing,
)
from .spaces import isolated_cone_space, suspension_product_space
from .stratified import TwoStrataSpace


class InputError(ValueError):
    """Malformed or inconsistent input data; the message names the field."""


def _require(data: dict, field: str, where: str):
    if field not in data:
        raise InputError(f"{where}: missing required field {field!r}")
    return data[field]


def _require_mapping(data: dict, field: str, where: str) -> dict:
    value = _require(data, field, where)
    if not isinstance(value, dict):
        raise InputError(f"{where}.{field}: expected an object keyed by degree")
    return value


def _rational_out(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def matrix_from_rows(rows, where: str) -> MatrixQ:
    try:
        return MatrixQ.from_rows([[as_rational(v) for v in row] for row in rows])
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise InputError(f"{where}: bad matrix entry ({e})") from None


def matrix_to_rows(m: MatrixQ) -> list[list]:
    return [[_rational_out(v) for v in row] for row in m.to_rows()]


# ---------------------------------------------------------------------------
# triangulations

def load_complex(data: dict, where: str = "triangulation"):
    """Build the richest object the fields support.

    Returns an OrientedPseudomanifoldWithBoundary when boundary or
    orientation data is present, a StratifiedComplex when sigma is present,
    and a bare SimplicialComplex otherwise.
    """
    vertices = _require(data, "vertices", where)
    if not isinstance(vertices, list):
        raise InputError(f"{where}: vertices must be a list of labels")
    tops = _require(data, "top_simplices", where)
    if not isinstance(tops, list) or not tops:
        raise InputError(f"{where}: top_simplices must be a nonempty list")
    cx = SimplicialComplex([str(v) for v in vertices],
                           [[str(v) for v in t] for t in tops])
    if "sigma" in data and ("boundary" in data or "orientation" in data):
        raise InputError(
            f"{where}: sigma and boundary/orientation are mutually exclusive "
            "(a stratified input or an oriented one, not both)")
    if "boundary" in data or "orientation" in data:
        orientation = None
        if "orientation" in data:
            signs = data["orientation"]
            if len(signs) != len(tops):
                raise InputError(
                    f"{where}: orientation has {len(signs)} signs for "
                    f"{len(tops)} top simplices")
            vidx = {v: i for i, v in enumerate(cx.vertices)}
            orientation = {}
            for t, s in zip(tops, signs):
                key = tuple(sorted(vidx[str(v)] for v in t))
                orientation[key] = int(s)
        return OrientedPseudomanifoldWithBoundary(
            cx, boundary_simplices=data.get("boundary", ()),
            orientation=orientation)
    if "sigma" in data:
        sigma = [str(v) for v in data["sigma"]]
        sigma_dim = -1
        sigma_set = set(sigma)
        for d in range(cx.dim + 1):
            for s in cx.simplices(d):
                if set(cx.labels(s)) <= sigma_set:
                    sigma_dim = max(sigma_dim, d)
        codim = data.get("codim", cx.dim - sigma_dim)
        return StratifiedComplex(cx, sigma, codim)
    return cx


def complex_to_dict(obj) -> dict:
    if isinstance(obj, OrientedPseudomanifoldWithBoundary):
        cx = obj.complex
        n = cx.dim
        tops = list(cx.simplices(n))
        out = {
            "vertices": list(cx.vertices),
            "top_simplices": [list(cx.labels(t)) for t in tops],
            "orientation": [obj.orientation[t] for t in tops],
        }
        maximal_bd = sorted(s for s in obj.boundary if len(s) == n)
        out["boundary"] = [list(cx.labels(s)) for s in maximal_bd]
        return out
    if isinstance(obj, StratifiedComplex):
        cx = obj.complex
        return {
            "vertices": list(cx.vertices),
            "top_simplices": [list(cx.labels(t))
                              for t in _maximal_simplices(cx)],
            "sigma": list(obj.sigma_labels()),
            "codim": obj.codim,
        }
    cx = obj
    return {
        "vertices": list(cx.vertices),
        "top_simplices": [list(cx.labels(t)) for t in _maximal_simplices(cx)],
    }


def _maximal_simplices(cx: SimplicialComplex):
    out = []
    for d in range(cx.dim + 1):
        for t in cx.simplices(d):
            if not any(set(t) < set(o) for dd in range(d + 1, cx.dim + 1)
                       for o in cx.simplices(dd)):
                out.append(t)
    return out


# ---------------------------------------------------------------------------
# spaces

def _betti_from(node, where: str) -> list[int]:
    """Interpret a link/stratum description: Betti list, inline complex,
    or {"betti": [...]} / {"file": path}."""
    if isinstance(node, list):
        return [int(x) for x in node]
    if isinstance(node, dict):
        if "betti" in node:
            return [int(x) for x in node["betti"]]
        if "file" in node:
            loaded = load_json(node["file"])
            obj = load_complex(loaded, where=node["file"])
            cx = obj.complex if isinstance(obj, StratifiedComplex) else obj
            h = chain_complex_of(cx).homology()
            return list(h.as_tuple(0, cx.dim))
        if "vertices" in node:
            cx = load_complex(node, where=where)
            cx = cx.complex if isinstance(cx, StratifiedComplex) else cx
            h = chain_complex_of(cx).homology()
            return list(h.as_tuple(0, cx.dim))
    raise InputError(f"{where}: expected a Betti list, a complex, or a file "
                     "reference")


def load_space(data: dict, where: str = "space") -> TwoStrataSpace:
    kind = _require(data, "kind", where)
    label = str(data.get("label", ""))
    oriented = bool(data.get("oriented", True))
    if kind == "suspension_product":
        link = _betti_from(_require(data, "link", where), f"{where}.link")
        sigma = _betti_from(_require(data, "sigma", where), f"{where}.sigma")
        return suspension_product_space(link, sigma, label=label)
    if kind == "isolated_cone":
        link = _betti_from(_require(data, "link", where), f"{where}.link")
        m_betti = [int(x) for x in _require(data, "m_betti", where)]
        beta = {int(j): matrix_from_rows(rows, f"{where}.beta_T[{j}]")
                for j, rows in _require_mapping(data, "beta_T", where).items()}
        return isolated_cone_space(link, m_betti, beta, oriented=oriented,
                                   label=label)
    if kind == "algebraic":
        n = int(_require(data, "n", where))
        l = int(_require(data, "l", where))
        s = int(_require(data, "s", where))
        link_h = GradedVS([int(x) for x in _require(data, "link_betti", where)])
        sigma_h = GradedVS([int(x) for x in _require(data, "sigma_betti", where)])
        m_h = GradedVS([int(x) for x in _require(data, "m_betti", where)])
        b_h = link_h.convolve(sigma_h)
        blocks = {}
        for j, rows in _require_mapping(data, "beta_T", where).items():
            m = matrix_from_rows(rows, f"{where}.beta_T[{j}]")
            if not m.is_zero():
                blocks[int(j)] = m
        try:
            beta = GradedMap(b_h, m_h, blocks)
            return TwoStrataSpace(n=n, l=l, s=s, link_h=link_h,
                                  sigma_h=sigma_h, m_h=m_h,
                                  boundary_restriction=beta,
                                  oriented=oriented, label=label)
        except ValueError as e:
            raise InputError(f"{where}: {e}") from None
    raise InputError(f"{where}: unknown kind {kind!r}")


def space_to_dict(space: TwoStrataSpace) -> dict:
    b = space.boundary_h()
    beta = {}
    for j in b.degrees():
        block = space.boundary_restriction.block(j)
        if block.rows and block.cols:
            beta[str(j)] = matrix_to_rows(block)
    return {
        "kind": "algebraic",
        "n": space.n,
        "l": space.l,
        "s": space.s,
        "link_betti": list(space.link_h.as_tuple(0, space.l)),
        "sigma_betti": list(space.sigma_h.as_tuple(0, space.s)),
        "m_betti": list(space.m_h.as_tuple(0, max(space.m_h.top, 0))),
        "beta_T": beta,
        "oriented": space.oriented,
        "label": space.label,
    }


# ---------------------------------------------------------------------------
# pairings

def load_pairing(data: dict, where: str = "pairing") -> PairingData:
    if "matrix" in data:
        degree = int(_require(data, "degree", where))
        m = matrix_from_rows(data["matrix"], f"{where}.matrix")
        if m.rows != m.cols:
            raise InputError(f"{where}.matrix: must be square, got "
                             f"{m.rows}x{m.cols}")
        return PairingData(degree, m, basis_note=str(data.get("basis_note", "")))
    if "vertices" in data:
        pm = load_complex(data, where=where)
        if not isinstance(pm, OrientedPseudomanifoldWithBoundary):
            raise InputError(
                f"{where}: triangulation needs boundary or orientation data "
                "to define a pairing")
        n = pm.complex.dim
        if n % 2:
            raise InputError(f"{where}: no middle degree in odd dimension {n}")
        return cup_pairing(pm, n // 2)
    raise InputError(f"{where}: expected a pairing matrix or a triangulation")


# ---------------------------------------------------------------------------
# files

def load_json(path) -> dict:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise InputError(f"{path}: cannot read ({e})") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: malformed JSON ({e})") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    return data


def dump_canonical(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
