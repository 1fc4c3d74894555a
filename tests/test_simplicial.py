import random
from collections import Counter

import pytest

from strathom import catalog, chains, simplicial
from strathom.chains import GradedVS
from strathom.simplicial import (
    OrientationError,
    OrientedPseudomanifoldWithBoundary,
    SimplicialComplex,
    StratifiedComplex,
    barycentric_subdivide,
    chain_complex_of,
    cone,
    cup_pairing,
    ih_direct,
    product_complex,
    suspension,
)

from oracles import ref_ih_direct


def circle3():
    return SimplicialComplex("abc", ["ab", "bc", "ac"])


def torus7():
    verts = [str(i) for i in range(7)]
    tops = [[str(i % 7), str((i + 1) % 7), str((i + 3) % 7)] for i in range(7)]
    tops += [[str(i % 7), str((i + 2) % 7), str((i + 3) % 7)] for i in range(7)]
    return SimplicialComplex(verts, tops)


def sphere2():
    # boundary of the 3-simplex
    return SimplicialComplex("wxyz", ["wxy", "wxz", "wyz", "xyz"])


def full_triangle():
    return SimplicialComplex("abc", ["abc"])


def test_chain_complex_of_basics():
    assert chain_complex_of(full_triangle()).homology() == GradedVS([1])
    assert chain_complex_of(circle3()).homology() == GradedVS([1, 1])
    assert chain_complex_of(torus7()).homology() == GradedVS([1, 2, 1])
    assert chain_complex_of(sphere2()).homology() == GradedVS([1, 0, 1])
    assert torus7().f_vector() == (7, 21, 14)


def test_cone_basics():
    c = cone(circle3())
    assert c.codim == 2
    assert chain_complex_of(c.complex).homology() == GradedVS([1])
    c = cone(SimplicialComplex("ab", ["a", "b"]))
    assert chain_complex_of(c.complex).homology() == GradedVS([1])
    ct = cone(torus7())
    assert ct.codim == 3
    assert chain_complex_of(ct.complex).homology() == GradedVS([1])
    assert ih_direct(ct, 0) == GradedVS([1, 2, 0])


def test_suspension_basics():
    s = suspension(circle3())
    assert chain_complex_of(s.complex).homology() == GradedVS([1, 0, 1])
    assert sorted(s.sigma_labels()) == ["N*", "S*"]
    sq = suspension(SimplicialComplex("ab", ["a", "b"]))
    assert chain_complex_of(sq.complex).homology() == GradedVS([1, 1])
    st = suspension(torus7())
    assert st.codim == 3
    assert chain_complex_of(st.complex).homology() == GradedVS([1, 0, 2, 1])


def test_barycentric_subdivision_counts_and_homology():
    sub = barycentric_subdivide(StratifiedComplex(full_triangle(), [], 1))
    assert sub.complex.f_vector() == (7, 12, 6)
    assert chain_complex_of(sub.complex).homology() == GradedVS([1])
    sub = barycentric_subdivide(StratifiedComplex(circle3(), [], 1))
    assert sub.complex.f_vector() == (6, 6)
    assert chain_complex_of(sub.complex).homology() == GradedVS([1, 1])


def test_subdivision_keeps_sigma_full():
    ct = cone(torus7())
    sub = barycentric_subdivide(ct)
    assert len(sub.sigma) == 1
    st = suspension(circle3())
    sub = barycentric_subdivide(st)
    assert len(sub.sigma) == 2


def cone_formula_expected(link_betti, link_dim, p):
    cut = link_dim - p
    return GradedVS({j: b for j, b in enumerate(link_betti) if j < cut})


def suspension_expected(link_betti, link_dim, p):
    cut = link_dim - p
    dims = {}
    for j, b in enumerate(link_betti):
        if j < cut:
            dims[j] = dims.get(j, 0) + b
        if j >= cut:
            dims[j + 1] = dims.get(j + 1, 0) + b
    return GradedVS(dims)


def test_ih_direct_cone_family_unsubdivided():
    families = [
        (cone(circle3()), [1, 1], 1),
        (cone(torus7()), [1, 2, 1], 2),
        (cone(sphere2()), [1, 0, 1], 2),
    ]
    for st, betti, ldim in families:
        for p in range(-3, 5):
            assert ih_direct(st, p) == cone_formula_expected(betti, ldim, p), \
                (st, p)


def test_ih_direct_suspension_family_unsubdivided():
    st = suspension(circle3())
    for p in range(-3, 5):
        assert ih_direct(st, p) == suspension_expected([1, 1], 1, p), p


def test_ih_direct_empty_sigma_is_ordinary_homology():
    for cx in (circle3(), torus7(), sphere2()):
        st = StratifiedComplex(cx, [], 1)
        h = chain_complex_of(cx).homology()
        for p in (-5, 0, 7):
            assert ih_direct(st, p) == h


def test_ih_direct_subdivision_invariance_small():
    st = cone(circle3())
    sub = barycentric_subdivide(st)
    for p in range(-3, 5):
        assert ih_direct(st, p) == ih_direct(sub, p)
    st = suspension(circle3())
    sub = barycentric_subdivide(st)
    for p in range(-3, 5):
        assert ih_direct(st, p) == ih_direct(sub, p)


def test_ih_direct_very_negative_is_complement_homology():
    assert ih_direct(cone(torus7()), -9) == GradedVS([1, 2, 1])
    assert ih_direct(cone(sphere2()), -9) == GradedVS([1, 0, 1])


def _memo_families():
    """(stratified complex, perversities) pairs for the memo tests."""
    out = []
    for st in (cone(circle3()), cone(torus7()), cone(sphere2()),
               suspension(circle3())):
        out.append((st, range(-3, 5)))
        out.append((barycentric_subdivide(st), range(-3, 5)))
    s_t2 = suspension(torus7())
    singular = [f"{u},{v}" for u in s_t2.sigma_labels()
                for v in catalog.circle().vertices]
    out.append((StratifiedComplex(
        product_complex(s_t2.complex, catalog.circle()), singular, 3),
        range(-2, 4)))
    return out


def test_ih_direct_memo_matches_fresh_complex_per_p():
    rng = random.Random(7)
    for st, ps in _memo_families():
        fresh = {p: ih_direct(StratifiedComplex(st.complex, st.sigma_labels(),
                                                st.codim), p) for p in ps}
        shuffled = list(ps)
        rng.shuffle(shuffled)
        for p in list(reversed(ps)) + shuffled:
            assert ih_direct(st, p) == fresh[p], (st, p)


def test_ih_direct_sweep_builds_each_problem_once(monkeypatch):
    built, reduced = Counter(), [0]
    boundary_matrix = simplicial.boundary_matrix
    column_lows = chains.column_lows

    def counting_boundary(cx, d, *selection):
        built[d] += 1
        return boundary_matrix(cx, d, *selection)

    def counting_lows(m, skip=()):
        reduced[0] += 1
        return column_lows(m, skip)

    monkeypatch.setattr(simplicial, "boundary_matrix", counting_boundary)
    monkeypatch.setattr(chains, "column_lows", counting_lows)
    for st, ps in _memo_families():
        built.clear()
        reduced[0] = 0
        for p in ps:
            ih_direct(st, p)
        # one truncated boundary and one reduction per degree 1..dim
        assert built == Counter(range(1, st.complex.dim + 1)), (st, built)
        assert reduced[0] == st.complex.dim, (st, reduced[0])
        # a second sweep is answered from the memo alone
        before = (sum(built.values()), reduced[0])
        for p in ps:
            ih_direct(st, p)
        assert (sum(built.values()), reduced[0]) == before, st


def _random_sigma_families(rng):
    """Catalog cones and staircase products with a random singular vertex
    set and codimension."""
    bases = [cone(catalog.torus7()).complex,
             cone(catalog.sphere_boundary(2)).complex,
             suspension(catalog.circle(4)).complex,
             product_complex(catalog.circle(), catalog.circle()),
             product_complex(catalog.interval(), catalog.torus7()),
             product_complex(cone(catalog.circle()).complex, catalog.circle())]
    for cx in bases:
        for _ in range(3):
            sigma = rng.sample(cx.vertices,
                               rng.randrange(len(cx.vertices) // 2 + 1))
            yield StratifiedComplex(cx, sigma, rng.randrange(1, cx.dim + 2))


def test_ih_direct_matches_submatrix_ranks():
    rng = random.Random(11)
    families = [st for st, _ in _memo_families()]
    families += list(_random_sigma_families(rng))
    for st in families:
        for p in range(-4, 6):
            assert ih_direct(st, p) == ref_ih_direct(st, p), (st, p)


def test_boundary_matrix_selection_is_the_submatrix():
    rng = random.Random(3)
    pms = [catalog.cp2_minus_facet(), catalog.i_x_s1_x_t2(), catalog.disk2()]
    for cx in [pm.complex for pm in pms] + [torus7(), sphere2()]:
        for d in range(1, cx.dim + 1):
            full = simplicial.boundary_matrix(cx, d)
            for _ in range(4):
                rows = rng.sample(range(full.rows), rng.randrange(full.rows + 1))
                cols = rng.sample(range(full.cols), rng.randrange(full.cols + 1))
                assert simplicial.boundary_matrix(cx, d, rows, cols) == \
                    full.submatrix(rows, cols), (cx, d)


def test_product_complex_circle_circle():
    t = product_complex(circle3(), circle3())
    assert chain_complex_of(t).homology() == GradedVS([1, 2, 1])


def test_product_complex_interval_circle():
    interval = SimplicialComplex("01", ["01"])
    cyl = product_complex(interval, circle3())
    assert chain_complex_of(cyl).homology() == GradedVS([1, 1])


def disk2():
    return OrientedPseudomanifoldWithBoundary(
        full_triangle(), boundary_simplices=["ab", "bc", "ac"])


def test_oriented_pm_construction_and_checks():
    d = disk2()
    assert set(d.orientation.values()) <= {1, -1}
    # sphere: empty boundary, orientable
    s = OrientedPseudomanifoldWithBoundary(sphere2())
    assert len(s.orientation) == 4
    # one propagated sign flipped: the fundamental chain's boundary leaks
    flipped = dict(s.orientation)
    first = next(iter(flipped))
    flipped[first] = -flipped[first]
    with pytest.raises(OrientationError, match="leaks"):
        OrientedPseudomanifoldWithBoundary(sphere2(), orientation=flipped)
    # wrong boundary: the disk without declared boundary fails coface counts
    with pytest.raises(OrientationError):
        OrientedPseudomanifoldWithBoundary(full_triangle())


def test_cup_pairing_disk_degree1_empty():
    p = cup_pairing(disk2(), 1)
    assert p.matrix.rows == 0


def test_cup_pairing_torus_degree1_is_symplectic():
    t = OrientedPseudomanifoldWithBoundary(torus7())
    p = cup_pairing(t, 1)
    assert p.matrix.rows == 2
    # odd middle degree: antisymmetric and nondegenerate
    assert p.matrix.entry(0, 0) == 0 and p.matrix.entry(1, 1) == 0
    assert p.matrix.entry(0, 1) == -p.matrix.entry(1, 0) != 0


def _maximal_by_scan(cx):
    """Brute force: simplices that are a proper face of no other simplex."""
    return [t for d in range(cx.dim + 1) for t in cx.simplices(d)
            if not any(set(t) < set(o) for dd in range(d + 1, cx.dim + 1)
                       for o in cx.simplices(dd))]


def test_facets_match_brute_force_scan():
    from strathom import catalog
    dangling = SimplicialComplex("abcd", ["abc", "cd"])
    for cx in (catalog.torus7(), catalog.cp2_9(),
               product_complex(catalog.circle(), catalog.circle()), dangling):
        assert cx.facets() == _maximal_by_scan(cx)
    idx = {v: i for i, v in enumerate(dangling.vertices)}
    assert dangling.facets() == [(idx["c"], idx["d"]),
                                 (idx["a"], idx["b"], idx["c"])]
    assert len(catalog.cp2_9().facets()) == 36
