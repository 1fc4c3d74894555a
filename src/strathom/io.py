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
  matrices in the Kunneth layout of ``GradedVS.tensor_blocks`` (blocks by
  ascending stratum degree, pairs lexicographic inside a block).  Matrix
  entries are integers or rational strings like ``"3/2"``.
* pairing files: ``{"degree": m, "matrix": [[...]]}``, or any triangulation
  file with ``boundary``/``orientation`` data, in which case the pairing is
  the cup product in the middle degree, computed only where it is read.

Serialization is canonical: keys sorted, rationals emitted as integers when
integral and ``"p/q"`` strings otherwise, so byte-identical output means
identical data.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import chains, simplicial, spaces, stratified
from .qlinalg import DimensionMismatch, MatrixQ


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


def _int(value, field: str) -> int:
    """A JSON integer, or the canonical decimal string of one (a degree key
    of `beta_T`, as JSON object keys are strings); `true`, `4.5` and `"01"`
    are not, so no two keys name one degree."""
    if (isinstance(value, str) and value.removeprefix("-").isdecimal()
            and str(int(value)) == value):
        value = int(value)
    if type(value) is not int:
        raise InputError(f"{field}: expected an integer, got {value!r}")
    return value


def _ints(value, field: str) -> list[int]:
    if not isinstance(value, list):
        raise InputError(f"{field}: expected a list of integers")
    return [_int(x, field) for x in value]


def _betti(value, field: str) -> list[int]:
    """A Betti list of a nonempty space: integers, none of them negative,
    b_0 at least 1.  Checked here, before a model is built from it, so the
    refusal names the field of the file's own kind."""
    betti = _ints(value, field)
    for degree, b in enumerate(betti):
        if b < 0:
            raise InputError(f"{field}: negative Betti number {b} in degree "
                             f"{degree}")
    if not betti or betti[0] < 1:
        raise InputError(f"{field}: must be nonempty (b_0 >= 1)")
    return betti


def _simplex_list(value, field: str) -> list:
    if not isinstance(value, list) or not all(isinstance(t, list) and t
                                              for t in value):
        raise InputError(f"{field}: expected a list of nonempty vertex lists")
    return value


def matrix_from_rows(rows, where: str) -> MatrixQ:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError(f"{where}: expected a list of rows, each a list")
    try:
        return MatrixQ.from_rows(rows)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise InputError(f"{where}: bad matrix entry ({e})") from None


def matrix_to_rows(m: MatrixQ) -> list[list]:
    """`m.to_rows()` with each non-integer entry as a ``"p/q"`` string."""
    rows = m.to_rows()
    for (i, j), x in m.items():
        if type(x) is not int:
            rows[i][j] = f"{x.numerator}/{x.denominator}"
    return rows


# ---------------------------------------------------------------------------
# triangulations

def load_complex(data: dict, where: str = "triangulation"):
    """Build the richest object the fields support.

    Returns an OrientedPseudomanifoldWithBoundary when boundary or
    orientation data is present, a StratifiedComplex when sigma is present,
    and a bare SimplicialComplex otherwise.  A construction check that
    fails is reported against `where`, and against the field when it
    concerns one field only.
    """
    vertices = _require(data, "vertices", where)
    if not isinstance(vertices, list):
        raise InputError(f"{where}: vertices must be a list of labels")
    tops = _simplex_list(_require(data, "top_simplices", where),
                         f"{where}.top_simplices")
    if not tops:
        raise InputError(f"{where}: top_simplices must be a nonempty list")
    labels = [str(v) for v in vertices]
    try:
        cx = simplicial.SimplicialComplex(labels,
                                          [[str(v) for v in t] for t in tops])
    except ValueError as e:
        # the labels are checked first, so duplicates are what failed
        field = ("vertices" if len(set(labels)) < len(labels)
                 else "top_simplices")
        raise InputError(f"{where}.{field}: {e}") from None
    if "sigma" in data and ("boundary" in data or "orientation" in data):
        raise InputError(
            f"{where}: sigma and boundary/orientation are mutually exclusive "
            "(a stratified input or an oriented one, not both)")
    if "boundary" in data or "orientation" in data:
        orientation = None
        if "orientation" in data:
            signs = _ints(data["orientation"], f"{where}.orientation")
            if len(signs) != len(tops):
                raise InputError(
                    f"{where}: orientation has {len(signs)} signs for "
                    f"{len(tops)} top simplices")
            if any(x not in (1, -1) for x in signs):
                raise InputError(f"{where}.orientation: signs must be +-1")
            orientation = {}
            for t, s in zip(tops, signs):
                key = cx.simplex(t)
                if orientation.setdefault(key, s) != s:
                    raise InputError(
                        f"{where}.orientation: simplex {cx.labels(key)} is "
                        "listed with both signs")
        boundary = _simplex_list(data.get("boundary", []), f"{where}.boundary")
        try:
            return simplicial.OrientedPseudomanifoldWithBoundary(
                cx, boundary_simplices=boundary, orientation=orientation)
        except simplicial.NotPure as e:
            raise InputError(f"{where}.top_simplices: {e}") from None
        except simplicial.OrientationError as e:
            # the coface counts and the one fundamental-chain pass read the
            # complex, its boundary and its orientation together; a sign on
            # a simplex that is no top names the orientation in its text
            raise InputError(f"{where}: {e}") from None
        except ValueError as e:
            # what is left: a boundary simplex with an unknown or repeated
            # label, one the complex lacks, or one off the boundary
            # (n - 1)-simplices
            raise InputError(f"{where}.boundary: {e}") from None
    if "sigma" in data:
        if not isinstance(data["sigma"], list):
            raise InputError(f"{where}.sigma: expected a list of vertex labels")
        sigma = [str(v) for v in data["sigma"]]
        # every simplex is a face of a listed top, whose sigma vertices
        # span a simplex
        sigma_set = set(sigma)
        sigma_dim = max(sum(str(v) in sigma_set for v in t) for t in tops) - 1
        codim = _int(data.get("codim", cx.dim - sigma_dim), f"{where}.codim")
        if codim < 1:
            # an absent codim defaults to dim - dim sigma, 0 only when sigma
            # spans a top simplex: the field at fault is then sigma
            raise InputError(
                f"{where}.codim: codimension must be >= 1, got {codim}"
                if "codim" in data else
                f"{where}.sigma: sigma spans a top {cx.dim}-simplex, so the "
                f"default codimension {cx.dim} - {sigma_dim} is 0")
        try:
            return simplicial.StratifiedComplex(cx, sigma, codim)
        except ValueError as e:
            raise InputError(f"{where}.sigma: {e}") from None
    return cx


def complex_to_dict(obj) -> dict:
    """The file of a complex, stratified complex or oriented pseudomanifold:
    its maximal simplices as `top_simplices`, then `orientation` and the
    maximal boundary simplices, or `sigma` and `codim`."""
    cx = obj if isinstance(obj, simplicial.SimplicialComplex) else obj.complex
    tops = cx.facets()
    out = {"vertices": list(cx.vertices),
           "top_simplices": [list(cx.labels(t)) for t in tops]}
    if isinstance(obj, simplicial.OrientedPseudomanifoldWithBoundary):
        out["orientation"] = [obj.orientation[t] for t in tops]
        out["boundary"] = [list(cx.labels(s)) for s in sorted(obj.boundary)
                           if len(s) == cx.dim]
    elif isinstance(obj, simplicial.StratifiedComplex):
        out["sigma"] = list(obj.sigma_labels())
        out["codim"] = obj.codim
    return out


# ---------------------------------------------------------------------------
# spaces

def _beta_blocks(data: dict, where: str) -> dict[int, MatrixQ]:
    """The `beta_T` object: {degree: block}, each key an integer."""
    return {_int(j, f"{where}.beta_T"):
            matrix_from_rows(rows, f"{where}.beta_T[{j}]")
            for j, rows in _require_mapping(data, "beta_T", where).items()}


def _betti_from(node, where: str, base: Path) -> list[int]:
    """Interpret a link/stratum description: Betti list, inline complex,
    or {"betti": [...]} / {"file": path}, a relative path being taken from
    the directory `base`."""
    if isinstance(node, list):
        return _betti(node, where)
    if isinstance(node, dict):
        if "betti" in node:
            return _betti(node["betti"], f"{where}.betti")
        if "file" in node:
            path = str(base / str(node["file"]))
            try:
                return simplicial.betti_numbers(
                    load_complex(load_json(path), where=path))
            except InputError as e:
                raise InputError(f"{where}: {e}") from None
        if "vertices" in node:
            return simplicial.betti_numbers(load_complex(node, where=where))
    raise InputError(f"{where}: expected a Betti list, a complex, or a file "
                     "reference")


def load_space(data: dict, where: str = "space",
               base: Path = Path()) -> stratified.TwoStrataSpace:
    """Build a space from its JSON object.  A `{"file": …}` link or stratum
    is read from the directory `base` (that of the space file) unless its
    path is absolute.  A model flagged oriented (the default) must satisfy
    Poincare-Lefschetz duality.  An `algebraic` or `isolated_cone` model is
    checked by `check_lefschetz`.  A `suspension_product`'s restriction is
    the fold map, onto in every degree, so its duality reads
    c_j = c_{l+s-j} for c = H(L x Sigma0): the palindrome test of
    `_space_from`, which names `.link and .sigma`.  A model check that
    fails (the augmentation, a dimension, the duality) is reported against
    `where`, a block of the wrong shape against `where.beta_T`."""
    try:
        space = _space_from(data, where, base)
        if space.oriented and data["kind"] != "suspension_product":
            stratified.check_lefschetz(space)
        return space
    except InputError:
        raise
    except DimensionMismatch as e:
        raise InputError(f"{where}.beta_T: {e}") from None
    except ValueError as e:
        raise InputError(f"{where}: {e}") from None


def _space_from(data: dict, where: str,
                base: Path) -> stratified.TwoStrataSpace:
    kind = _require(data, "kind", where)
    label = data.get("label", "")
    if not isinstance(label, str):
        raise InputError(f"{where}.label: expected a string, got {label!r}")
    oriented = data.get("oriented", True)
    if not isinstance(oriented, bool):
        raise InputError(f"{where}.oriented: expected true or false, got "
                         f"{oriented!r}")
    if kind == "suspension_product":
        link = _betti_from(_require(data, "link", where), f"{where}.link",
                           base)
        sigma = _betti_from(_require(data, "sigma", where), f"{where}.sigma",
                            base)
        boundary = chains.GradedVS(link).convolve(
            chains.GradedVS(sigma)).as_tuple()
        if oriented and boundary != boundary[::-1]:
            raise InputError(
                f"{where}.link and .sigma: the Betti numbers {list(boundary)} "
                "of link x sigma are not Poincare dual")
        return spaces.suspension_product_space(link, sigma, oriented=oriented,
                                               label=label)
    if kind == "isolated_cone":
        link = _betti_from(_require(data, "link", where), f"{where}.link",
                           base)
        m_betti = _betti(_require(data, "m_betti", where), f"{where}.m_betti")
        return spaces.isolated_cone_space(link, m_betti,
                                          _beta_blocks(data, where),
                                          oriented=oriented, label=label)
    if kind == "algebraic":
        n, l, s = (_int(_require(data, f, where), f"{where}.{f}")
                   for f in ("n", "l", "s"))
        link_h, sigma_h, m_h = (
            chains.GradedVS(_betti(_require(data, f, where), f"{where}.{f}"))
            for f in ("link_betti", "sigma_betti", "m_betti"))
        return stratified.TwoStrataSpace(
            n=n, l=l, s=s, link_h=link_h, sigma_h=sigma_h, m_h=m_h,
            boundary_restriction=_beta_blocks(data, where),
            oriented=oriented, label=label)
    raise InputError(f"{where}: unknown kind {kind!r}")


def space_to_dict(space: stratified.TwoStrataSpace) -> dict:
    b = space.boundary_h()
    beta = {}
    for j in b.degrees():
        block = space.block(j)
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

def load_pairing(data: dict, where: str = "pairing"
                 ) -> (simplicial.PairingData
                       | simplicial.OrientedPseudomanifoldWithBoundary):
    """A pairing matrix, or a validated oriented triangulation of even
    dimension.  This is the file door of a pairing matrix: it checks a
    nonnegative degree, a square shape and symmetry in even degree, naming
    `.degree` or `.matrix`; the `PairingData` record checks nothing, and
    `qlinalg.signature_sym` checks again only what it reads, for any
    caller.  A triangulation's cup pairing is not computed here:
    `verify_theorem_sig` computes it only where it reads sigma(Mbar)."""
    if "matrix" in data:
        degree = _int(_require(data, "degree", where), f"{where}.degree")
        if degree < 0:
            raise InputError(f"{where}.degree: must be nonnegative, got "
                             f"{degree}")
        m = matrix_from_rows(data["matrix"], f"{where}.matrix")
        if m.rows != m.cols:
            raise InputError(f"{where}.matrix: must be square, got "
                             f"{m.rows}x{m.cols}")
        if degree % 2 == 0 and not m.is_symmetric():
            raise InputError(f"{where}.matrix: must be symmetric in even "
                             f"degree {degree}")
        return simplicial.PairingData(degree, m)
    if "vertices" in data:
        pm = load_complex(data, where=where)
        if not isinstance(pm, simplicial.OrientedPseudomanifoldWithBoundary):
            raise InputError(
                f"{where}: triangulation needs boundary or orientation data "
                "to define a pairing")
        n = pm.complex.dim
        if n % 2:
            raise InputError(f"{where}: no middle degree in odd dimension {n}")
        return pm
    raise InputError(f"{where}: expected a pairing matrix or a triangulation")


# ---------------------------------------------------------------------------
# files

def load_json(path) -> dict:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"{path}: cannot read ({e})") from None
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:
        # besides a JSONDecodeError: a number longer than int() converts
        # (ValueError), or nesting deeper than the stack (RecursionError)
        raise InputError(f"{path}: malformed JSON ({e})") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    return data


def dump_canonical(data: dict) -> str:
    # no indent: any indent makes json.dumps fall back to its pure-Python
    # encoder, several times slower on a dense beta_T
    return json.dumps(data, sort_keys=True) + "\n"
