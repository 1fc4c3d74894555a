"""Canonical triangulations used by the bundled inputs, demos and tests.

The complex projective plane is the 9-vertex Kuehnel-Banchoff
triangulation, generated from twelve base facets by the vertex shift
v -> v + 3 (mod 9); its identity is pinned in the tests against the known
f-vector (9, 36, 84, 90, 36), the homology of the projective plane, and
the unimodular cup form.  The torus is the 7-vertex Moebius torus, the
minimal triangulation.
"""

from __future__ import annotations

from .simplicial import (
    OrientedPseudomanifoldWithBoundary,
    SimplicialComplex,
    _faces,
    product_complex,
)

_CP2_BLOCK = [
    (1, 2, 4, 5, 6), (2, 3, 5, 6, 4), (3, 1, 6, 4, 5),
    (1, 2, 4, 5, 9), (2, 3, 5, 6, 7), (3, 1, 6, 4, 8),
    (2, 3, 6, 4, 9), (3, 1, 4, 5, 7), (1, 2, 5, 6, 8),
    (3, 1, 5, 6, 9), (1, 2, 6, 4, 7), (2, 3, 4, 5, 8),
]


def circle(n: int = 3) -> SimplicialComplex:
    """The cyclic triangulation of a circle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("a triangulated circle needs at least 3 vertices")
    verts = [f"c{i}" for i in range(n)]
    return SimplicialComplex(verts, [[verts[i], verts[(i + 1) % n]]
                                     for i in range(n)])


def interval() -> SimplicialComplex:
    return SimplicialComplex(["0", "1"], [["0", "1"]])


def sphere_boundary(dim: int) -> SimplicialComplex:
    """The boundary of the (dim+1)-simplex: the minimal dim-sphere."""
    verts = [f"s{i}" for i in range(dim + 2)]
    return SimplicialComplex(verts, _faces(verts))


def torus7() -> SimplicialComplex:
    """The 7-vertex torus: facets {i, i+1, i+3} and {i, i+2, i+3} mod 7."""
    verts = [f"t{i}" for i in range(7)]
    tops = [[verts[i % 7], verts[(i + 1) % 7], verts[(i + 3) % 7]]
            for i in range(7)]
    tops += [[verts[i % 7], verts[(i + 2) % 7], verts[(i + 3) % 7]]
             for i in range(7)]
    return SimplicialComplex(verts, tops)


def cp2_9() -> SimplicialComplex:
    """The 9-vertex complex projective plane."""
    facets = set()
    for block in range(3):
        for f in _CP2_BLOCK:
            facets.add(tuple(sorted((v - 1 + 3 * block) % 9 + 1 for v in f)))
    return SimplicialComplex([str(i) for i in range(1, 10)],
                             [[str(v) for v in f] for f in sorted(facets)])


def cp2_minus_facet() -> OrientedPseudomanifoldWithBoundary:
    """CP^2 with the open star of one top simplex removed.

    The boundary is the 3-sphere bounding the removed facet.  The
    orientation propagated from the first kept facet makes the cup form
    positive definite (the complex orientation of the projective plane).
    """
    cx = cp2_9()
    facets = [cx.labels(t) for t in cx.simplices(4)]
    removed = facets[0]
    kept = facets[1:]
    # every proper face of the removed facet is a face of some kept facet,
    # so the complement is the closure of the kept facets
    complement = SimplicialComplex(cx.vertices, kept)
    return OrientedPseudomanifoldWithBoundary(
        complement, boundary_simplices=_faces(removed))


def i_x_s1_x_t2() -> OrientedPseudomanifoldWithBoundary:
    """The staircase triangulation of I x S^1 x T^2 with its two boundary
    copies of S^1 x T^2."""
    m = product_complex(interval(), product_complex(circle(), torus7()))
    boundary = []
    for s in m.simplices(3):
        labels = m.labels(s)
        if len({lab.split(",", 1)[0] for lab in labels}) == 1:
            boundary.append(labels)
    return OrientedPseudomanifoldWithBoundary(m, boundary_simplices=boundary)


def disk2() -> OrientedPseudomanifoldWithBoundary:
    """A triangle with its boundary circle."""
    cx = SimplicialComplex("abc", ["abc"])
    return OrientedPseudomanifoldWithBoundary(
        cx, boundary_simplices=["ab", "bc", "ac"])
