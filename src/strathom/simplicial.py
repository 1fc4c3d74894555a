"""Finite simplicial complexes and the chain-level machinery built on them.

`SimplicialComplex` owns the label map that fixes every sign: its vertex
list orders the vertices, `simplex(labels)` is the one translation from
labels to sorted indices, and `facets()` the one test of maximality.  An
orientation enters only through the `OrientedPseudomanifoldWithBoundary`
constructor, which checks it, and which reads `facets()` to decide purity:
a pseudomanifold has no maximal simplex below full dimension.

Provides ingestion from top simplices, boundary matrices with signs taken
from a single global vertex order, cones and suspensions with the apex set
flagged as the singular stratum, barycentric subdivision, the staircase
triangulation of products, the brute-force intersection-homology oracle
`ih_direct`, and the middle-degree cup-product pairing used for Novikov
signatures.

`ih_direct` computes the homology of allowable chains under King's
allowability condition specialized to linear simplices (a simplex meets the
singular set in the face spanned by its singular vertices), with the
boundary operator truncated below the singular set.  Chains supported
entirely inside the singular set are quotiented away, which is what makes
the cone formula come out right in every degree for arbitrarily large
perversity values; see the module's tests for the cone/suspension family
this is pinned against.  Each `StratifiedComplex` memoizes what the oracle
reads: the Sigma-face dimension of every simplex, and per degree the
(face dimension of the column, face dimension of its low) pairs of the
truncated boundary, ordered by face dimension: the differential of the
relative complex C(K)/C(Sigma).  Every rank pair (rank C_d, rank D_d) of
every perversity is a count over those pairs, kept per (degree,
threshold), so a sweep builds and reduces each degree once and counts
each threshold once.  Both it and `betti_numbers` (the `homology` command)
count the lows of the one clearing routine `chains.cleared_lows`.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

from .chains import ChainComplex, GradedVS, cleared_lows, cycle_representatives
from .qlinalg import MatrixQ, column_lows

Simplex = tuple[int, ...]  # vertex indices, strictly increasing


class OrientationError(ValueError):
    """The complex is not an orientable pseudomanifold, or the supplied
    orientation is incoherent."""


class NotPure(ValueError):
    """A maximal simplex lies below the top dimension."""


class SimplicialComplex:
    """A finite simplicial complex over an ordered vertex list.

    The vertex order is part of the data: it fixes the sign conventions of
    every boundary matrix and of the front-face/back-face cup product.
    Simplices are stored per dimension as sorted tuples of vertex indices,
    listed lexicographically.  `_uniform` records whether the listed top
    simplices all have one length, in which case they are the facets.
    """

    __slots__ = ("vertices", "_label_index", "_uniform", "_by_dim", "_index")

    def __init__(self, vertices: Sequence[str], top_simplices: Iterable[Sequence[str]]):
        self.vertices = tuple(str(v) for v in vertices)
        self._label_index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._label_index) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        tops = [self.simplex(top) for top in top_simplices]
        self._uniform = len({len(t) for t in tops}) < 2
        closure: set[Simplex] = set()
        for idx in tops:
            for r in range(1, len(idx) + 1):
                closure.update(combinations(idx, r))
        by_dim: dict[int, list[Simplex]] = {}
        for s in closure:
            by_dim.setdefault(len(s) - 1, []).append(s)
        self._by_dim = {d: tuple(sorted(v)) for d, v in by_dim.items()}
        self._index = {d: {s: k for k, s in enumerate(v)}
                       for d, v in self._by_dim.items()}

    def simplex(self, labels: Iterable) -> Simplex:
        """The sorted vertex indices of the simplex spanned by `labels`; an
        unknown or repeated label is a ValueError naming it."""
        index = self._label_index
        try:
            s = tuple(sorted([index[str(v)] for v in labels]))
        except KeyError as e:
            raise ValueError(f"unknown vertex {e.args[0]!r}") from None
        for a, b in zip(s, s[1:]):
            if a == b:
                raise ValueError(f"repeated vertex {self.vertices[a]!r}")
        return s

    @property
    def dim(self) -> int:
        return max(self._by_dim) if self._by_dim else -1

    def simplices(self, d: int) -> tuple[Simplex, ...]:
        return self._by_dim.get(d, ())

    def n_simplices(self, d: int) -> int:
        return len(self._by_dim.get(d, ()))

    def has_simplex(self, s: Simplex) -> bool:
        return s in self._index.get(len(s) - 1, ())

    def labels(self, s: Simplex) -> tuple[str, ...]:
        return tuple(self.vertices[i] for i in s)

    def facets(self) -> list[Simplex]:
        """The maximal simplices: those that are no face of a simplex one
        dimension higher, in (dimension, lexicographic) order."""
        if self._uniform:
            return list(self.simplices(self.dim))
        out = []
        for d in range(self.dim + 1):
            covered = {t[:i] + t[i + 1:] for t in self.simplices(d + 1)
                       for i in range(len(t))}
            out.extend(t for t in self.simplices(d) if t not in covered)
        return out

    def f_vector(self) -> tuple[int, ...]:
        return tuple(self.n_simplices(d) for d in range(self.dim + 1))

    def __repr__(self) -> str:
        return f"SimplicialComplex(f={self.f_vector()})"


def boundary_matrix(s: SimplicialComplex, d: int,
                    rows: Sequence[int] | None = None,
                    cols: Sequence[int] | None = None) -> MatrixQ:
    """Matrix of the boundary operator C_d -> C_{d-1} with standard signs.

    `rows` and `cols`, if given, are the indices of the (d - 1)- and
    d-simplices to keep, in the order of the matrix rows and columns; the
    faces outside `rows` are dropped."""
    if rows is None:
        lower = s._index.get(d - 1, {})
    else:
        below = s.simplices(d - 1)
        lower = {below[i]: k for k, i in enumerate(rows)}
    simplices = s.simplices(d)
    if cols is None:
        cols = range(len(simplices))
    columns = {}
    for col, j in enumerate(cols):
        simplex = simplices[j]
        faces = (lower.get(simplex[:i] + simplex[i + 1:])
                 for i in range(len(simplex)))
        column = {row: -1 if i % 2 else 1
                  for i, row in enumerate(faces) if row is not None}
        if column:
            columns[col] = column
    # +-1 at distinct faces inside the shape, no empty column
    return MatrixQ._of(len(lower), len(cols), columns)


def chain_complex_of(s: SimplicialComplex) -> ChainComplex:
    """The simplicial chain complex with the global-vertex-order signs."""
    spaces = GradedVS({d: s.n_simplices(d) for d in range(s.dim + 1)})
    diffs = {d: boundary_matrix(s, d) for d in range(1, s.dim + 1)}
    return ChainComplex(spaces, diffs)


def betti_numbers(obj) -> list[int]:
    """Betti numbers in degrees 0..dim of a complex, or of the complex under
    a StratifiedComplex or an OrientedPseudomanifoldWithBoundary, from the
    lows of `cleared_lows` as in `ih_direct`; d o d = 0 by the sign rule."""
    cx = obj if isinstance(obj, SimplicialComplex) else obj.complex
    lows = cleared_lows(range(1, cx.dim + 1), lambda d: boundary_matrix(cx, d))
    return [cx.n_simplices(d) - len(lows.get(d, ())) - len(lows.get(d + 1, ()))
            for d in range(cx.dim + 1)]


class StratifiedComplex:
    """A simplicial complex with a flagged singular vertex set.

    `sigma` spans the singular subcomplex (all simplices whose vertices lie
    in sigma); `codim` is the codimension of the singular stratum, the c at
    which the perversity is evaluated.  `_ih_memo` is the memo `ih_direct`
    fills on first use.
    """

    __slots__ = ("complex", "sigma", "codim", "_ih_memo")

    def __init__(self, complex: SimplicialComplex, sigma: Iterable[str], codim: int):
        self.complex = complex
        index = complex._label_index
        labels = {str(v) for v in sigma}
        unknown = labels - index.keys()
        if unknown:
            raise ValueError(f"sigma contains unknown vertices {sorted(unknown)}")
        if codim < 1:
            raise ValueError("codimension must be >= 1")
        self.sigma = frozenset(index[v] for v in labels)
        self.codim = codim
        self._ih_memo = None

    def sigma_labels(self) -> tuple[str, ...]:
        return tuple(self.complex.vertices[i] for i in sorted(self.sigma))

    def __repr__(self) -> str:
        return (f"StratifiedComplex({self.complex!r}, |sigma|={len(self.sigma)}, "
                f"codim={self.codim})")


def _apex_join(s: SimplicialComplex, apexes: Sequence[str],
               verb: str) -> StratifiedComplex:
    """Join every simplex of `s` to each apex, each label primed until it is
    new; the apexes are the singular set, of codimension dim s + 1."""
    if s.dim < 0:
        raise ValueError(f"cannot {verb} the empty complex")
    taken = set(s.vertices)
    fresh = []
    for apex in apexes:
        while apex in taken:
            apex += "'"
        taken.add(apex)
        fresh.append(apex)
    # joining to every simplex keeps lower-dimensional maximal ones too
    tops = [s.labels(t) + (apex,) for d in range(s.dim + 1)
            for t in s.simplices(d) for apex in fresh]
    joined = SimplicialComplex(s.vertices + tuple(fresh), tops)
    return StratifiedComplex(joined, fresh, s.dim + 1)


def cone(s: SimplicialComplex, apex: str = "*") -> StratifiedComplex:
    """Cone with one new apex vertex; the apex is the singular set."""
    return _apex_join(s, [apex], "cone")


def suspension(s: SimplicialComplex, north: str = "N*",
               south: str = "S*") -> StratifiedComplex:
    """Suspension with two new apexes; both are flagged singular."""
    return _apex_join(s, [north, south], "suspend")


# ---------------------------------------------------------------------------
# barycentric subdivision

def _barycenter_label(s: SimplicialComplex, simplex: Simplex) -> str:
    return "<" + ".".join(s.labels(simplex)) + ">"


def barycentric_complex(s: SimplicialComplex) -> tuple[SimplicialComplex, dict]:
    """The barycentric subdivision and the map simplex -> new vertex label.

    New vertices are the barycenters of old simplices, ordered by (dimension,
    lexicographic index tuple); new top simplices are the maximal flags of
    the face poset.  Because barycenters of lower-dimensional faces come
    first in the vertex order, every flag is already sorted, which keeps
    orientation bookkeeping straightforward.
    """
    order: list[Simplex] = []
    for d in range(s.dim + 1):
        order.extend(s.simplices(d))
    label = {simplex: _barycenter_label(s, simplex) for simplex in order}
    vertices = [label[simplex] for simplex in order]

    flags: list[tuple[str, ...]] = []

    def descend(chain: list[Simplex]):
        smallest = chain[-1]
        if len(smallest) == 1:
            flags.append(tuple(label[c] for c in reversed(chain)))
            return
        for face in combinations(smallest, len(smallest) - 1):
            descend(chain + [face])

    # only maximal simplices generate flags; non-maximal ones are covered by
    # the closure of the maximal flags
    for top in s.facets():
        descend([top])
    return SimplicialComplex(vertices, flags), label


def barycentric_subdivide(st: StratifiedComplex) -> StratifiedComplex:
    """Subdivide once; sigma becomes the subdivision of the sigma subcomplex."""
    sub, label = barycentric_complex(st.complex)
    sigma_labels = [label[simplex]
                    for d in range(st.complex.dim + 1)
                    for simplex in st.complex.simplices(d)
                    if set(simplex) <= st.sigma]
    return StratifiedComplex(sub, sigma_labels, st.codim)


# ---------------------------------------------------------------------------
# the brute-force intersection homology oracle

def ih_direct(st: StratifiedComplex, p_at_c: int) -> GradedVS:
    """Intersection homology of a stratified complex, by brute force.

    A linear i-simplex is allowable iff the face it spans inside the
    singular set has dimension <= i - codim + p(codim) (no singular
    vertices means dimension -infinity, always allowable).  The boundary
    operator drops all summands supported in the singular set, and chains
    supported in the singular set are themselves quotiented away, matching
    the relative-chain formulation that keeps the cone formula anomaly-free
    for arbitrary integer perversities.

    Only ranks are computed: with C_d the allowability condition and D_d
    the truncated boundary on allowable chains, dim IC_d = #allowable_d -
    rank C_d and the boundary has rank rank D_d - rank C_d on IC_d.

    Both ranks come from one column reduction per degree, for every
    perversity.  Write f for the Sigma-face dimension (-1 for no singular
    vertex, d for an interior d-simplex) and t = clamp(d - codim + p, -1,
    d - 1) for the threshold: the allowable d-simplices are those with
    f <= t.  Order the non-interior (d - 1)-simplices (rows) and
    d-simplices (columns) of the boundary matrix by (f, index).  D_d(t) is
    then a block of leading columns, and C_d(t), whose rows are those with
    f > max(-1, t - 1), the lower-left block below it.  Adding a column to
    a later one keeps the rank of every lower-left block, and once the
    lows are distinct that rank is the number of reduced columns in the
    block whose low lies in it (pairing lemma of Cohen-Steiner, Edelsbrunner
    and Morozov, Vines and vineyards, 2006).  So, with those lows,

        rank D_d(t) = #{accepted c : f(c) <= t},
        rank C_d(t) = #{accepted c : f(c) <= t, f(low c) > max(-1, t - 1)}.

    The lows come from `cleared_lows`: an interior simplex has only
    interior faces, so the truncated boundary, in (f, index) order in every
    degree, is the differential of the quotient complex C(K)/C(Sigma).
    `st` memoizes the face dimensions, one list of (f(c), f(low c)) pairs
    per degree, and the allowable count, rank D_d and rank C_d per
    (degree, threshold), so a sweep builds and reduces each degree once and
    counts each distinct threshold once.
    """
    K = st.complex
    memo = st._ih_memo
    if memo is None:
        sigma = st.sigma
        face_dims = [[sum(v in sigma for v in simplex) - 1
                      for simplex in K.simplices(d)]
                     for d in range(K.dim + 1)]
        order = [[i for _, i in sorted((f, i) for i, f in enumerate(fd)
                                       if f < d)]
                 for d, fd in enumerate(face_dims)]
        lows = cleared_lows(range(1, K.dim + 1), lambda d: boundary_matrix(
            K, d, order[d - 1], order[d]))
        low_pairs = {d: [(face_dims[d][order[d][c]],
                          face_dims[d - 1][order[d - 1][r]])
                         for c, r in lows_d.items()]
                     for d, lows_d in lows.items()}
        memo = st._ih_memo = (face_dims, low_pairs, {})
    face_dims, low_pairs, counts = memo

    # IC_d = allowable chains whose truncated boundary is again allowable:
    # IC_d = ker C_d, and rank(D_d restricted to ker C_d) = rank D_d -
    # rank C_d, as the rows of C_d are a subset of those of D_d.
    ic_dim: dict[int, int] = {}
    ranks: dict[int, int] = {}
    for d in range(K.dim + 1):
        t = max(-1, min(d - st.codim + p_at_c, d - 1))
        if (d, t) not in counts:
            t_below = max(-1, t - 1)
            r_all = r_bad = 0
            for f, f_low in low_pairs.get(d, ()):
                if f <= t:
                    r_all += 1
                    r_bad += f_low > t_below
            counts[d, t] = (sum(f <= t for f in face_dims[d]), r_all, r_bad)
        allowable, r_all, r_bad = counts[d, t]
        ic_dim[d] = allowable - r_bad
        ranks[d] = r_all - r_bad

    # homology of (IC_*, truncated boundary)
    dims = {}
    for d in range(K.dim + 1):
        dims[d] = ic_dim[d] - ranks.get(d, 0) - ranks.get(d + 1, 0)
        assert dims[d] >= 0
    return GradedVS(dims)


# ---------------------------------------------------------------------------
# staircase product triangulations

def product_complex(a: SimplicialComplex, b: SimplicialComplex,
                    sep: str = ",") -> SimplicialComplex:
    """The staircase triangulation of |a| x |b|.

    Vertices are pairs ordered lexicographically by factor indices; the top
    cells over each pair of facets are the monotone staircase paths.  This
    is the Eilenberg-Zilber triangulation, so faces of staircase cells are
    staircase cells of faces and the union over facet pairs is a complex.
    """
    verts = [f"{u}{sep}{v}" for u in a.vertices for v in b.vertices]

    def pair_label(iu: int, iv: int) -> str:
        return f"{a.vertices[iu]}{sep}{b.vertices[iv]}"

    tops = []
    facets_b = b.facets()
    for sa in a.facets():
        p = len(sa) - 1
        for sb in facets_b:
            q = len(sb) - 1
            for a_steps in combinations(range(p + q), p):
                ia = ib = 0
                path = [pair_label(sa[0], sb[0])]
                for step in range(p + q):
                    if step in a_steps:
                        ia += 1
                    else:
                        ib += 1
                    path.append(pair_label(sa[ia], sb[ib]))
                tops.append(tuple(path))
    return SimplicialComplex(verts, tops)


# ---------------------------------------------------------------------------
# oriented pseudomanifolds with boundary and the cup-product pairing

class OrientedPseudomanifoldWithBoundary:
    """A triangulated oriented pseudomanifold with (possibly empty) boundary.

    Construction first checks purity: a maximal simplex below full
    dimension is never seen by the coface counts, so the first one in
    `facets()` order is refused with `NotPure`.  It then checks that every
    interior codimension-1 simplex has exactly two top cofaces and every
    boundary one exactly one.  A supplied orientation must give a sign of
    +-1 to each top simplex and to nothing else; an omitted one is
    propagated from the lexicographically first facet of each piece.
    Either way, one pass then checks that the fundamental chain's boundary
    lies in the boundary subcomplex.
    """

    __slots__ = ("complex", "boundary", "orientation")

    def __init__(self, complex: SimplicialComplex,
                 boundary_simplices: Iterable[Sequence[str]] = (),
                 orientation: Mapping[Simplex, int] | None = None):
        self.complex = complex
        n = complex.dim
        facets = complex.facets()
        if facets and len(facets[0]) <= n:
            raise NotPure(f"simplex {complex.labels(facets[0])} lies in no "
                          f"{n}-simplex: the complex is not pure")
        bset: set[Simplex] = set()
        for bs in boundary_simplices:
            s = complex.simplex(bs)
            if not complex.has_simplex(s):
                raise ValueError(
                    f"boundary simplex {complex.labels(s)} not in complex")
            for r in range(1, len(s) + 1):
                bset.update(combinations(s, r))
        self.boundary = frozenset(bset)

        tops = complex.simplices(n)
        # codimension-1 face -> (top index, position of the omitted vertex)
        cofaces: dict[Simplex, list[tuple[int, int]]] = {}
        for t_i, t in enumerate(tops):
            for i in range(len(t)):
                face = t[:i] + t[i + 1:]
                cofaces.setdefault(face, []).append((t_i, i))
        for face, cf in cofaces.items():
            expected = 1 if face in self.boundary else 2
            if len(cf) != expected:
                raise OrientationError(
                    f"codimension-1 simplex {complex.labels(face)} has "
                    f"{len(cf)} top cofaces, expected {expected}")

        if orientation is None:
            self.orientation = self._propagate(tops, cofaces)
        else:
            unsigned = next((t for t in tops if t not in orientation), None)
            if unsigned is not None:
                raise OrientationError(f"orientation gives no sign to "
                                       f"{complex.labels(unsigned)}")
            signs = {t: int(orientation[t]) for t in tops}
            if any(x not in (1, -1) for x in signs.values()):
                raise OrientationError("orientation signs must be +-1")
            stray = next((s for s in orientation if s not in signs), None)
            if stray is not None:
                raise OrientationError(
                    f"orientation gives a sign to {complex.labels(stray)}, "
                    f"which is not a {n}-simplex")
            self.orientation = signs
        self._check_fundamental_chain(tops, cofaces,
                                      supplied=orientation is not None)

    def _propagate(self, tops, cofaces) -> dict[Simplex, int]:
        """Signs spread across interior faces from the first facet of each
        piece; `_check_fundamental_chain` tests their coherence."""
        signs: dict[Simplex, int] = {}
        for seed in tops:
            if seed in signs:
                continue
            signs[seed] = 1
            stack = [seed]
            while stack:
                t = stack.pop()
                for i in range(len(t)):
                    for other_i, j in cofaces[t[:i] + t[i + 1:]]:
                        other = tops[other_i]
                        if other not in signs:
                            # induced orientations cancel: the face
                            # carries (-1)**i in t and (-1)**j in other
                            signs[other] = -(-1) ** (i + j) * signs[t]
                            stack.append(other)
        return signs

    def _check_fundamental_chain(self, tops, cofaces, supplied: bool) -> None:
        """The one coherence test, run once on every orientation: the
        boundary of the fundamental chain lies in the boundary subcomplex.
        Off it, each codimension-1 face sums (-1)**i * sign over its top
        cofaces, i the position of the vertex the face omits.  Propagation
        forces each sign it sets, so a propagated orientation fails only
        when no coherent orientation exists: the complex is not
        orientable."""
        signs = self.orientation
        for face, cf in cofaces.items():
            if face in self.boundary:
                continue
            if sum(-signs[tops[t_i]] if i % 2 else signs[tops[t_i]]
                   for t_i, i in cf):
                raise OrientationError(
                    "fundamental chain boundary leaks outside the boundary "
                    f"subcomplex at {self.complex.labels(face)}" if supplied
                    else "complex is not orientable")

    def __repr__(self) -> str:
        return (f"OrientedPseudomanifoldWithBoundary(dim={self.complex.dim}, "
                f"facets={self.complex.n_simplices(self.complex.dim)})")


class PairingData(NamedTuple):
    """A middle-degree pairing matrix and its degree.  The record checks
    nothing: `io.load_pairing` checks a pairing file (a nonnegative degree,
    a square matrix, symmetric in even degree), `cup_pairing` builds an
    r x r matrix, and `qlinalg.signature_sym` checks that the matrix it
    reads is square and symmetric."""

    degree: int
    matrix: MatrixQ


def cup_pairing(m: OrientedPseudomanifoldWithBoundary) -> PairingData:
    """The middle-degree cup-product pairing against the fundamental chain.

    The degree is m = n / 2 for the dimension n of the complex; an odd n
    has no middle degree and is a ValueError.  Both slots run over a
    cocycle basis of H^m(K, bd K), the cleared representatives of
    `cycle_representatives` on the relative coboundaries (cocycles
    vanishing on the lows of delta^{m-1}, so no full cocycle basis is
    built); the second factor is regarded in absolute cohomology.
    Entry (i, j) is <a_i cup a_j, fundamental chain> with the ordered
    front-face/back-face cup product in the global vertex order.  Its
    signature is the Novikov signature of the complex.

    For even m the matrix is symmetric, and is not re-checked here
    (`signature_sym` checks it where it is read): the representatives
    vanish on the boundary subcomplex, so they are absolute cocycles, and
    a cup b - b cup a = +-delta(a cup_1 b) (Steenrod, Products of cocycles
    and extensions of mappings, 1947).  Since the orientation is coherent,
    <delta(a cup_1 b), [K]> = <a cup_1 b, boundary [K]> = 0, because
    boundary [K] lies in the boundary subcomplex, where a vanishes.
    """
    K = m.complex
    if K.dim % 2:
        raise ValueError(f"no middle degree in odd dimension {K.dim}")
    degree = K.dim // 2

    # the indices of the simplices off the boundary: relative cochain bases
    rel = {d: [i for i, s in enumerate(K.simplices(d)) if s not in m.boundary]
           for d in (degree - 1, degree, degree + 1)}

    def rel_delta(d: int) -> MatrixQ:
        """delta: relative C^d -> relative C^{d+1} (transpose of boundary)."""
        return boundary_matrix(K, d + 1, rel[d], rel[d + 1]).transpose()

    reps_rel = cycle_representatives(rel_delta(degree),
                                     column_lows(rel_delta(degree - 1)))

    # cocycles as {simplex index: coefficient} over all degree-m simplices
    cols = rel[degree]
    cocycles = [{cols[k]: x for k, x in v.items()} for v in reps_rel]

    midx = K._index.get(degree, {})
    r = len(cocycles)
    entries = {}
    for t, coeff in m.orientation.items():
        front = midx[t[:degree + 1]]
        back = midx[t[degree:]]
        for i, a in enumerate(cocycles):
            va = a.get(front)
            if not va:
                continue
            for j, b in enumerate(cocycles):
                vb = b.get(back)
                if not vb:
                    continue
                key = (i, j)
                s = entries.get(key, 0) + coeff * va * vb
                if s:
                    entries[key] = s
                elif key in entries:
                    del entries[key]
    return PairingData(degree, MatrixQ(r, r, entries))
