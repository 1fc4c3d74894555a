import ast
import itertools
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from strathom import catalog, chains, simplicial
from strathom import io as sio
from strathom.chains import GradedVS
from strathom.qlinalg import MatrixQ, rank
from strathom.simplicial import (
    NotPure,
    OrientationError,
    OrientedPseudomanifoldWithBoundary,
    SimplicialComplex,
    StratifiedComplex,
    barycentric_subdivide,
    betti_numbers,
    boundary_matrix,
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


def test_barycenter_labels_are_primed_until_new():
    """The barycenter of edge (a, b) would take the label of vertex a.b;
    it is primed instead, and a label that collides with none is kept."""
    cx = SimplicialComplex(["a", "b", "a.b"], [["a", "b"], ["b", "a.b"]])
    st = StratifiedComplex(cx, ["a"], 1)
    sub = barycentric_subdivide(st)
    assert sub.complex.vertices == ("<a>", "<b>", "<a.b>", "<a.b>'",
                                    "<b.a.b>")
    assert sub.sigma_labels() == ("<a>",)
    for p in range(-1, 3):
        assert ih_direct(sub, p) == ih_direct(st, p)
    assert "'" not in "".join(barycentric_subdivide(cone(circle3()))
                              .complex.vertices)


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
        assert tuple(betti_numbers(cx)) == h.as_tuple(0, cx.dim)


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
    built, reduced, columns = Counter(), [0], Counter()
    boundary_matrix = simplicial.boundary_matrix
    column_lows = simplicial.column_lows

    def counting_boundary(cx, d, *selection):
        built[d] += 1
        m = boundary_matrix(cx, d, *selection)
        columns[d] += m.cols
        return m

    def counting_lows(m):
        reduced[0] += 1
        return column_lows(m)

    monkeypatch.setattr(simplicial, "boundary_matrix", counting_boundary)
    monkeypatch.setattr(simplicial, "column_lows", counting_lows)
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
        # the constant key of betti_numbers runs the same filtered reduction
        built.clear()
        columns.clear()
        reduced[0] = 0
        K = st.complex
        betti_numbers(K)
        assert built == Counter(range(1, K.dim + 1)), (st, built)
        assert reduced[0] == K.dim, (st, reduced[0])
        # a cleared column is never built: degree d builds n_d columns less
        # #pairs_{d+1} = rank d_{d+1}
        assert columns == Counter({
            d: K.n_simplices(d) - rank(boundary_matrix(K, d + 1))
            for d in range(1, K.dim + 1)}), (st, columns)


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
    # a supplied orientation that leaves a top simplex unsigned
    with pytest.raises(OrientationError, match=re.escape(
            "orientation gives no sign to ('w', 'x', 'z')")):
        OrientedPseudomanifoldWithBoundary(
            SimplicialComplex("wxyz", ["wxy", "wxz", "wyz", "xyz"]),
            orientation={(0, 1, 2): 1})
    # wrong boundary: the disk without declared boundary fails coface counts
    with pytest.raises(OrientationError):
        OrientedPseudomanifoldWithBoundary(full_triangle())


def test_pseudomanifold_constructor_refuses_an_impure_complex():
    """The constructor decides purity: a dangling edge or an isolated
    vertex is a maximal simplex that no coface count sees."""
    for tops, short in ((["abc", "cd"], ("c", "d")), (["abc", "d"], ("d",))):
        with pytest.raises(NotPure, match=re.escape(
                f"simplex {short} lies in no 2-simplex: the complex is not "
                "pure")):
            OrientedPseudomanifoldWithBoundary(
                SimplicialComplex("abcd", tops), ["ab", "bc", "ac"])


def test_boundary_simplices_off_the_boundary_are_refused():
    """The boundary is the closure of its listed (n - 1)-simplices: a
    listed simplex in none of them is refused, naming the first in vertex
    order, and a point has no boundary at all."""
    square_cone = SimplicialComplex("abdec", ["abc", "bdc", "dec", "eac"])
    rim = ["ab", "bd", "de", "ea"]
    for cx, listed, text in (
            (square_cone, rim + ["c"],
             "boundary simplex ('c',) lies in no boundary 1-simplex"),
            # the vertex order is a, b, d, e, c
            (square_cone, rim + ["c", "dec"],
             "boundary simplex ('d', 'e', 'c') lies in no boundary "
             "1-simplex"),
            (full_triangle(), ["abc"],
             "boundary simplex ('a', 'b', 'c') lies in no boundary "
             "1-simplex"),
            (SimplicialComplex("a", ["a"]), ["a"],
             "boundary simplex ('a',) lies in a 0-dimensional complex, "
             "which has no boundary")):
        with pytest.raises(ValueError, match=re.escape(text)):
            OrientedPseudomanifoldWithBoundary(cx, listed)
    # faces of listed boundary (n - 1)-simplices may be listed too
    disk = OrientedPseudomanifoldWithBoundary(square_cone, rim + ["a", "ab"])
    assert disk.boundary == OrientedPseudomanifoldWithBoundary(
        square_cone, rim).boundary
    assert cup_pairing(disk).matrix.rows == 0


def test_cup_pairing_has_no_degree_in_odd_dimension():
    with pytest.raises(ValueError, match="no middle degree in odd dimension 1"):
        cup_pairing(OrientedPseudomanifoldWithBoundary(catalog.circle()))


def test_cup_pairing_disk_degree1_empty():
    p = cup_pairing(disk2())
    assert p.matrix.rows == 0


def test_cup_pairing_torus_degree1_is_symplectic():
    t = OrientedPseudomanifoldWithBoundary(torus7())
    p = cup_pairing(t)
    assert p.matrix.rows == 2
    # odd middle degree: antisymmetric and nondegenerate
    assert p.matrix.entry(0, 0) == 0 and p.matrix.entry(1, 1) == 0
    assert p.matrix.entry(0, 1) == -p.matrix.entry(1, 0) != 0


def _pairing_inputs():
    """The seven oriented triangulations whose pairings are pinned: both
    bundled pairing files, three catalog pseudomanifolds with supplied
    orientations, and the closed CP^2 and torus of the catalog, whose
    orientations are propagated."""
    data = Path(__file__).parent.parent / "src" / "strathom" / "data"
    for stem in ("ixs1xt2", "cp2_minus_ball"):
        yield stem, sio.load_pairing(sio.load_json(data / f"{stem}.json"))
    yield "cp2_minus_facet", catalog.cp2_minus_facet()
    yield "i_x_s1_x_t2", catalog.i_x_s1_x_t2()
    yield "disk2", catalog.disk2()
    yield "cp2_9", OrientedPseudomanifoldWithBoundary(catalog.cp2_9())
    yield "torus7", OrientedPseudomanifoldWithBoundary(catalog.torus7())


PINNED_PAIRINGS = {
    "ixs1xt2": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    "cp2_minus_ball": [[1]],
    "cp2_minus_facet": [[1]],
    "i_x_s1_x_t2": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    "disk2": [],
    "cp2_9": [[-1]],
    "torus7": [[0, -1], [1, 0]],
}


def test_cup_pairing_matrices_are_pinned():
    """The whole matrix, not only its signature: the cocycle basis, its
    order and the cup product all show in these entries."""
    assert {name: cup_pairing(pm).matrix.to_rows()
            for name, pm in _pairing_inputs()} == PINNED_PAIRINGS


def test_cup_pairing_size_is_the_relative_betti_number():
    """The pairing has r = b_m(K, bd K) rows, m the middle degree.  The
    Betti number is read off `_filtered_lows` under the key that leaves
    the boundary out, n_m - #pairs_m - #pairs_{m+1}: a reduction of the
    boundary of C(K)/C(bd K), not of the coboundaries `cup_pairing`
    reduces, so the two share only the elimination engine."""
    sizes = {}
    for name, pm in _pairing_inputs():
        m = pm.complex.dim // 2
        kept, pairs = simplicial._filtered_lows(
            pm.complex, lambda d, s: None if s in pm.boundary else 0)
        betti = (len(kept[m]) - len(pairs.get(m, ()))
                 - len(pairs.get(m + 1, ())))
        assert cup_pairing(pm).matrix.rows == betti, name
        sizes[name] = betti
    assert sizes == {"ixs1xt2": 3, "cp2_minus_ball": 1, "cp2_minus_facet": 1,
                     "i_x_s1_x_t2": 3, "disk2": 0, "cp2_9": 1, "torus7": 2}


def _maximal_by_scan(cx):
    """Brute force: simplices that are a proper face of no other simplex."""
    return [t for d in range(cx.dim + 1) for t in cx.simplices(d)
            if not any(set(t) < set(o) for dd in range(d + 1, cx.dim + 1)
                       for o in cx.simplices(dd))]


def _all_subsets(tops):
    """Brute force: every nonempty subset of every top simplex."""
    return {f for t in tops for r in range(1, len(t) + 1)
            for f in itertools.combinations(t, r)}


def test_facets_match_brute_force_scan():
    """The facets are the scan's maximal simplices, and the complex and a
    pseudomanifold's boundary are the all-subsets closures of what was
    listed: duplicate tops, a top that is a face of another, an isolated
    vertex, mixed dimensions and no top at all included."""
    cases = [(cx, cx.facets()) for cx in (
        catalog.torus7(), catalog.cp2_9(),
        product_complex(catalog.circle(), catalog.circle()))]
    listed = {"dangling": ("abcd", ["abc", "cd"]),
              "duplicates": ("abc", ["abc", "cab", "abc"]),
              "face of a top": ("abc", ["abc", "ab"]),
              "isolated vertex": ("abcd", ["abc", "d"]),
              "mixed": ("abcdef", ["abcd", "cde", "ef"]),
              "empty": ("ab", [])}
    built = {name: SimplicialComplex(*args) for name, args in listed.items()}
    cases += [(built[name], [built[name].simplex(t) for t in tops])
              for name, (_, tops) in listed.items()]
    for cx, tops in cases:
        assert cx.facets() == _maximal_by_scan(cx)
        closure = _all_subsets(tops)
        for d in range(-1, cx.dim + 2):
            assert cx.simplices(d) == tuple(sorted(
                s for s in closure if len(s) == d + 1))
    dangling = built["dangling"]
    idx = {v: i for i, v in enumerate(dangling.vertices)}
    assert dangling.facets() == [(idx["c"], idx["d"]),
                                 (idx["a"], idx["b"], idx["c"])]
    assert len(catalog.cp2_9().facets()) == 36
    assert built["face of a top"].facets() == [(0, 1, 2)]
    assert built["isolated vertex"].facets() == [(3,), (0, 1, 2)]
    assert built["empty"].dim == -1 and built["empty"].facets() == []

    data = Path(__file__).parent.parent / "src" / "strathom" / "data"
    pms = []
    for stem in ("ixs1xt2", "cp2_minus_ball"):
        raw = sio.load_json(data / f"{stem}.json")
        pm = sio.load_complex(raw)
        pms.append((pm, [pm.complex.simplex(s) for s in raw["boundary"]]))
    for pm in (catalog.cp2_minus_facet(), catalog.i_x_s1_x_t2(),
               catalog.disk2()):
        # the catalog lists exactly the boundary's (n - 1)-simplices
        pms.append((pm, [s for s in pm.boundary
                         if len(s) == pm.complex.dim]))
    for pm, listed in pms:
        n = pm.complex.dim
        assert any(len(s) == n for s in listed)
        assert pm.boundary == _all_subsets(s for s in listed if len(s) == n)


def test_one_face_rule():
    """`simplicial._faces` is the one rule for the codimension-1 faces of a
    simplex: no other function in `src` names `combinations` but the
    staircase of `product_complex`, which is no face rule, and no face is
    cut out by a slice `x[:i] + x[i + 1:]`.  The facets are recorded by
    `_closure`, so `SimplicialComplex` keeps no flag that picks a second
    way to find them."""
    from test_chains import _definitions
    src = Path(__file__).parent.parent / "src" / "strathom"

    def named(node):
        return ((isinstance(node, ast.Name) and node.id == "combinations")
                or (isinstance(node, ast.Attribute)
                    and node.attr == "combinations"))

    def face_slice(node):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
            return False
        head, tail = node.left, node.right
        return (isinstance(head, ast.Subscript) and isinstance(tail, ast.Subscript)
                and isinstance(head.slice, ast.Slice)
                and isinstance(tail.slice, ast.Slice)
                and head.slice.lower is None and tail.slice.upper is None
                and ast.dump(head.value) == ast.dump(tail.value))

    users, everywhere, slices = set(), 0, []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        everywhere += sum(map(named, ast.walk(tree)))
        slices += [f"{path.stem}:{node.lineno}"
                   for node in ast.walk(tree) if face_slice(node)]
        for where, fn in _definitions(tree):
            if any(map(named, ast.walk(fn))):
                users.add(f"{path.stem}.{where}")
    assert users == {"simplicial._faces", "simplicial.product_complex"}, users
    assert everywhere == 2
    assert not slices, slices
    assert "_uniform" not in SimplicialComplex.__slots__


def test_simplex_maps_labels_to_sorted_indices():
    cx = SimplicialComplex(["c", "a", "b"], [["a", "b", "c"]])
    # the vertex list, not the label order, fixes the indices
    assert cx.simplex("abc") == cx.simplex(["c", "b", "a"]) == (0, 1, 2)
    assert cx.simplex(["b", "a"]) == cx.simplex(["a", "b"]) == (1, 2)
    with pytest.raises(ValueError, match="unknown vertex 'z'"):
        cx.simplex(["a", "z"])
    with pytest.raises(ValueError, match="repeated vertex 'b'"):
        cx.simplex(["b", "a", "b"])
    # the constructor reads it for the top simplices
    with pytest.raises(ValueError, match="unknown vertex 'z'"):
        SimplicialComplex("abc", ["abz"])
    with pytest.raises(ValueError, match="repeated vertex 'a'"):
        SimplicialComplex("abc", ["aab"])


def _complex_family(rng):
    """Catalog complexes, cones and suspensions, staircase products,
    barycentric subdivisions and seeded random complexes."""
    out = [catalog.circle(), catalog.interval(), catalog.sphere_boundary(2),
           catalog.sphere_boundary(3), catalog.torus7(), catalog.cp2_9(),
           catalog.cp2_minus_facet().complex, catalog.disk2().complex,
           catalog.i_x_s1_x_t2().complex]
    for base in (catalog.circle(), catalog.torus7(), sphere2()):
        out += [cone(base).complex, suspension(base).complex,
                barycentric_subdivide(cone(base)).complex,
                barycentric_subdivide(StratifiedComplex(base, [], 1)).complex]
    out += [product_complex(catalog.circle(), catalog.circle()),
            product_complex(catalog.interval(), catalog.torus7()),
            product_complex(cone(catalog.circle()).complex, catalog.circle())]
    for _ in range(30):
        n = rng.randrange(1, 9)
        tops = [rng.sample(range(n), rng.randrange(1, min(n, 5) + 1))
                for _ in range(rng.randrange(1, 10))]
        out.append(SimplicialComplex([str(v) for v in range(n)],
                                     [[str(v) for v in t] for t in tops]))
    return out


def test_boundary_matrices_square_to_zero():
    """d o d = 0 in every adjacent pair of degrees: the sign rule of
    `boundary_matrix`, which `betti_numbers` relies on and never re-proves."""
    for cx in _complex_family(random.Random(17)):
        for d in range(2, cx.dim + 1):
            product = boundary_matrix(cx, d - 1) @ boundary_matrix(cx, d)
            assert product.is_zero(), (cx, d)


def test_betti_numbers_match_the_chain_complex():
    for cx in _complex_family(random.Random(19)):
        assert betti_numbers(cx) == list(
            chain_complex_of(cx).homology().as_tuple(0, cx.dim)), cx


def test_betti_numbers_multiply_no_matrices(monkeypatch):
    """`betti_numbers` reads the cleared lows alone: no `ChainComplex`, no
    d o d product."""
    data = Path(__file__).parent.parent / "src" / "strathom" / "data"
    pm = sio.load_complex(sio.load_json(data / "ixs1xt2.json"))

    def refuse(*args):
        raise AssertionError("betti_numbers built a product or a complex")

    monkeypatch.setattr(MatrixQ, "__matmul__", refuse)
    monkeypatch.setattr(chains.ChainComplex, "__init__", refuse)
    assert betti_numbers(pm) == [1, 3, 3, 1, 0]


def test_propagated_orientation_passes_the_supplied_checks(monkeypatch):
    """Every construction, propagated or supplied, runs the one
    fundamental-chain check exactly once; a propagated orientation passed
    back as a supplied one passes the +-1 and fundamental-chain checks."""
    checked = []
    check = OrientedPseudomanifoldWithBoundary._check_fundamental_chain

    def recording_check(self, *args, **kwargs):
        checked.append(self)
        return check(self, *args, **kwargs)

    monkeypatch.setattr(OrientedPseudomanifoldWithBoundary,
                        "_check_fundamental_chain", recording_check)
    built = [catalog.disk2(), OrientedPseudomanifoldWithBoundary(
        catalog.torus7()), catalog.cp2_minus_facet(), catalog.i_x_s1_x_t2()]
    assert len(checked) == len(built)
    for pm in built:
        cx = pm.complex
        again = OrientedPseudomanifoldWithBoundary(
            cx, [cx.labels(s) for s in pm.boundary],
            orientation=pm.orientation)
        assert checked[-1] is again
        assert again.orientation == pm.orientation and \
            again.boundary == pm.boundary
    assert len(checked) == 2 * len(built)


def test_zero_dimensional_pseudomanifolds():
    """A 0-dimensional complex has no codimension-1 simplex: every point is
    a closed piece, and every choice of signs is coherent."""
    for labels in ("a", "ab", "abc"):
        cx = SimplicialComplex(labels, [[v] for v in labels])
        pm = OrientedPseudomanifoldWithBoundary(cx, [])
        assert pm.orientation == {t: 1 for t in cx.simplices(0)}
        assert betti_numbers(pm) == [len(labels)]
        for signs in itertools.product((1, -1), repeat=len(labels)):
            orientation = dict(zip(cx.simplices(0), signs))
            assert OrientedPseudomanifoldWithBoundary(
                cx, orientation=orientation).orientation == orientation


def test_coherent_supplied_orientations_are_accepted():
    """Coherence fixes one sign per connected piece, nothing more: the
    reverse of the propagated orientation of the torus, and opposite signs
    on two disjoint 2-spheres, are accepted as supplied."""
    propagated = OrientedPseudomanifoldWithBoundary(torus7()).orientation
    reversed_signs = {t: -s for t, s in propagated.items()}
    assert OrientedPseudomanifoldWithBoundary(
        torus7(), orientation=reversed_signs).orientation == reversed_signs
    spheres = SimplicialComplex("wxyzabcd", ["wxy", "wxz", "wyz", "xyz",
                                             "abc", "abd", "acd", "bcd"])
    propagated = OrientedPseudomanifoldWithBoundary(spheres).orientation
    a = spheres.vertices.index("a")
    mixed = {t: -s if t[0] >= a else s for t, s in propagated.items()}
    assert mixed not in (propagated, {t: -s for t, s in propagated.items()})
    assert OrientedPseudomanifoldWithBoundary(
        spheres, orientation=mixed).orientation == mixed
