import ast
import random
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest

from strathom import io as sio
from strathom.catalog import (
    circle,
    cp2_9,
    cp2_minus_facet,
    disk2,
    i_x_s1_x_t2,
    interval,
    sphere_boundary,
    torus7,
)
from strathom.chains import (
    ChainComplex,
    ChainMap,
    GradedMap,
    GradedVS,
    cycle_representatives,
    induced_map,
    mapping_cone,
    tensor_complex,
)
from strathom.qlinalg import (
    IncrementalSpan,
    MatrixQ,
    column_lows,
    image_basis,
    rank,
)
from strathom.simplicial import boundary_matrix, chain_complex_of

from oracles import (
    convolve,
    rank_int_oracle,
    ref_cycle_representatives,
    ref_les_third_dims,
    ref_span_verdicts,
    scaled,
)

DATA = Path(__file__).parent.parent / "src" / "strathom" / "data"


def circle_complex():
    # 3-vertex circle: vertices a,b,c; edges ab, ac, bc
    d1 = MatrixQ.from_rows([
        [-1, -1, 0],
        [1, 0, -1],
        [0, 1, 1],
    ])
    return ChainComplex(GradedVS([3, 3]), {1: d1})


def point_complex():
    return ChainComplex(GradedVS([1]))


def torus7_boundaries():
    # 7-vertex (Moebius) torus: facets {i,i+1,i+3} and {i,i+2,i+3} mod 7
    verts = list(range(7))
    tris = sorted(
        [tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
        + [tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)]
    )
    edges = sorted({(a, b) for tri in tris for a in tri for b in tri if a < b})
    eidx = {e: k for k, e in enumerate(edges)}
    d1 = {}
    for k, (a, b) in enumerate(edges):
        d1[(a, k)] = d1.get((a, k), 0) - 1
        d1[(b, k)] = d1.get((b, k), 0) + 1
    d2 = {}
    for k, (a, b, c) in enumerate(tris):
        d2[(eidx[(b, c)], k)] = 1
        d2[(eidx[(a, c)], k)] = -1
        d2[(eidx[(a, b)], k)] = 1
    return (
        MatrixQ(7, len(edges), d1),
        MatrixQ(len(edges), len(tris), d2),
        len(edges),
        len(tris),
    )


def torus_complex():
    d1, d2, ne, nt = torus7_boundaries()
    return ChainComplex(GradedVS([7, ne, nt]), {1: d1, 2: d2})


def test_homology_circle():
    # oracle: rank of the 3x3 vertex-edge boundary matrix is 2
    d1, = [circle_complex().differential(1)]
    assert rank_int_oracle([[int(x) for x in row] for row in d1.to_rows()]) == 2
    assert circle_complex().homology() == GradedVS([1, 1])


def test_homology_torus():
    d1, d2, ne, nt = torus7_boundaries()
    # independent modular rank oracle for both boundary matrices
    r1 = rank_int_oracle([[int(x) for x in r] for r in d1.to_rows()])
    r2 = rank_int_oracle([[int(x) for x in r] for r in d2.to_rows()])
    assert (7 - r1, ne - r1 - r2, nt - r2) == (1, 2, 1)
    assert torus_complex().homology() == GradedVS([1, 2, 1])


def test_homology_zero_differentials():
    c = ChainComplex(GradedVS([2, 5, 1]))
    assert c.homology() == GradedVS([2, 5, 1])


def test_dd_zero_enforced():
    bad = MatrixQ.from_rows([[1], [0]])
    d1 = MatrixQ.from_rows([[1, 1]])
    with pytest.raises(ValueError):
        ChainComplex(GradedVS({0: 1, 1: 2, 2: 1}),
                     {1: d1, 2: bad})


def test_mapping_cone_of_identity_is_acyclic():
    for c in (circle_complex(), torus_complex()):
        ident = ChainMap(c, c, {j: MatrixQ.identity(c.spaces[j])
                                for j in c.spaces.degrees()})
        assert mapping_cone(ident).homology().is_zero()


def test_mapping_cone_of_zero_from_empty():
    src = ChainComplex(GradedVS())
    tgt = circle_complex()
    f = ChainMap(src, tgt)
    assert mapping_cone(f).homology() == tgt.homology()


def test_mapping_cone_point_into_circle():
    # chain model of the stage-1 approximation of a circle: a single vertex
    src = point_complex()
    tgt = circle_complex()
    f = ChainMap(src, tgt, {0: MatrixQ.from_rows([[1], [0], [0]])})
    assert mapping_cone(f).homology() == GradedVS([0, 1])


def test_tensor_with_point_is_identity_on_dims():
    c = torus_complex()
    t = tensor_complex(point_complex(), c)
    assert t.homology() == c.homology()
    t = tensor_complex(c, point_complex())
    assert t.homology() == c.homology()


def test_tensor_circle_circle_and_circle_torus():
    s1 = circle_complex()
    assert tensor_complex(s1, s1).homology() == GradedVS([1, 2, 1])
    assert tensor_complex(s1, torus_complex()).homology() == GradedVS([1, 3, 3, 1])


def _random_complex(rng, max_top=3, max_dim=3):
    """Random complex with known homology: sum of elementary pieces,
    conjugated by random invertible triangular-ish integer matrices.

    Degree-m layout: [betti[m] | sources of d_m | targets of d_{m+1}].
    """
    top = rng.randrange(0, max_top + 1)
    betti = {j: rng.randrange(0, max_dim + 1) for j in range(0, top + 1)}
    ks = {j: rng.randrange(0, max_dim) for j in range(1, top + 1)}
    dims = {m: betti[m] + ks.get(m, 0) + ks.get(m + 1, 0)
            for m in range(0, top + 1)}
    diffs = {}
    for j in range(1, top + 1):
        entries = {}
        for i in range(ks[j]):
            entries[(betti[j - 1] + ks.get(j - 1, 0) + i, betti[j] + i)] = 1
        if entries:
            diffs[j] = MatrixQ(dims[j - 1], dims[j], entries)
    spaces = GradedVS(dims)
    c = ChainComplex(spaces, diffs)
    # change of basis in every degree
    ps = {}
    for j in range(0, top + 1):
        n = spaces[j]
        p = MatrixQ.identity(n)
        for _ in range(n):
            a, b2 = rng.randrange(n), rng.randrange(n)
            if a == b2:
                continue
            e = MatrixQ.identity(n) + MatrixQ(n, n, {(a, b2): rng.choice([-1, 1])})
            p = p @ e
        ps[j] = p
    new_diffs = {}
    for j in range(1, top + 1):
        d = ps[j - 1] @ c.differential(j) @ _inverse(ps[j])
        if not d.is_zero():
            new_diffs[j] = d
    return ChainComplex(spaces, new_diffs), GradedVS(betti)


def _inverse(p: MatrixQ) -> MatrixQ:
    from strathom.qlinalg import solve
    n = p.rows
    entries = {}
    for j in range(n):
        x = solve(p, {j: 1})
        for i, v in x.items():
            entries[(i, j)] = v
    return MatrixQ(n, n, entries)


def test_euler_characteristic_invariance():
    rng = random.Random(5)
    for _ in range(20):
        c, betti = _random_complex(rng)
        assert c.homology() == betti
        assert c.spaces.euler() == c.homology().euler()


def test_kunneth_on_random_complexes():
    rng = random.Random(17)
    for _ in range(15):
        a, ba = _random_complex(rng, max_top=2, max_dim=2)
        b, bb = _random_complex(rng, max_top=2, max_dim=2)
        t = tensor_complex(a, b)
        expected = [0] * (max(ba.top, 0) + max(bb.top, 0) + 1)
        conv = convolve([ba[j] for j in range(ba.top + 1)],
                        [bb[j] for j in range(bb.top + 1)])
        assert list(t.homology().as_tuple(0, len(expected) - 1))[:len(conv)] == conv \
            or t.homology() == GradedVS(conv)


def test_cone_les_dimension_identity():
    rng = random.Random(23)
    for _ in range(15):
        a, _ = _random_complex(rng, max_top=2, max_dim=2)
        b, _ = _random_complex(rng, max_top=2, max_dim=2)
        blocks = {}
        for j in set(a.spaces.degrees()) & set(b.spaces.degrees()):
            blocks[j] = MatrixQ(b.spaces[j], a.spaces[j])
        f = ChainMap(a, b, blocks)  # zero map always commutes
        cone = mapping_cone(f)
        expected = ref_les_third_dims(induced_map(f))
        for j in range(0, cone.spaces.top + 1):
            assert cone.homology()[j] == expected[j]


def test_cone_les_identity_for_nonzero_maps():
    # inclusion of a circle into a disk-like complex kills H_1
    s1 = circle_complex()
    disk = ChainComplex(
        GradedVS([3, 3, 1]),
        {1: s1.differential(1),
         2: MatrixQ.from_rows([[1], [-1], [1]])})
    inc = ChainMap(s1, disk, {0: MatrixQ.identity(3), 1: MatrixQ.identity(3)})
    cone = mapping_cone(inc)
    expected = ref_les_third_dims(induced_map(inc))
    for j in range(0, 3):
        assert cone.homology()[j] == expected[j]


def _plain_homology(c):
    """Betti numbers from `rank` of every differential, uncleared."""
    r = {j: rank(c.differential(j)) for j in range(c.spaces.top + 2)}
    return GradedVS({j: c.spaces[j] - r[j] - r[j + 1]
                     for j in c.spaces.degrees()})


def _catalog_complexes():
    return [circle(), interval(), sphere_boundary(2), sphere_boundary(3),
            torus7(), cp2_9(), cp2_minus_facet().complex, disk2().complex,
            i_x_s1_x_t2().complex]


def _with_zero_differential(rng):
    """Random complexes with one differential set to zero between two
    nonzero ones, and the smallest such complex."""
    yield ChainComplex(GradedVS([1, 2, 2, 1]),
                       {3: MatrixQ.from_rows([[1], [0]]),
                        1: MatrixQ.from_rows([[1, 0]])})
    found = 0
    while found < 15:
        c, _ = _random_complex(rng, max_top=4, max_dim=3)
        inner = [j for j in c.differentials
                 if j - 1 in c.differentials and j + 1 in c.differentials]
        if inner:
            j = rng.choice(inner)
            found += 1
            yield ChainComplex(c.spaces, {k: m for k, m in
                                          c.differentials.items() if k != j})


def _rational_complexes(rng):
    """Tensor products and mapping cones of random complexes whose
    differentials are scaled by non-integral rationals."""
    def rational():
        c, _ = _random_complex(rng, max_top=2, max_dim=2)
        return ChainComplex(c.spaces, {
            j: scaled(m, Fraction(rng.choice([2, 3, -5]), 7))
            for j, m in c.differentials.items()})
    for _ in range(10):
        a, b = rational(), rational()
        yield tensor_complex(a, b)
        ident = ChainMap(a, a, {j: scaled(MatrixQ.identity(a.spaces[j]),
                                          Fraction(3, 4))
                                for j in a.spaces.degrees()})
        yield mapping_cone(ident)
        yield mapping_cone(ChainMap(a, tensor_complex(a, b)))


def test_cleared_homology_matches_plain_ranks():
    rng = random.Random(31)
    complexes = [chain_complex_of(K) for K in _catalog_complexes()]
    complexes += list(_with_zero_differential(rng))
    complexes += list(_rational_complexes(rng))
    complexes += [_random_complex(rng)[0] for _ in range(30)]
    assert any(isinstance(v, Fraction) for c in complexes
               for m in c.differentials.values() for _, v in m.items())
    for c in complexes:
        assert c.homology() == _plain_homology(c), c
    assert complexes[len(_catalog_complexes())].homology() == \
        GradedVS([0, 1, 1, 0])


def test_cleared_rejections_are_betti_numbers(monkeypatch):
    # with clearing, the columns of d_j fed to the span and rejected by it
    # are n_j - rank d_{j+1} - rank d_j = b_j of them
    from strathom import chains
    pm = sio.load_pairing(sio.load_json(DATA / "ixs1xt2.json"))
    complexes = _catalog_complexes() + [pm.complex]
    rejected = []
    real_add, real_lows = IncrementalSpan.add, chains.column_lows

    def add(self, vec):
        grew = real_add(self, vec)
        rejected[-1] += not grew
        return grew

    def lows(m, skip=()):
        rejected.append(0)
        return real_lows(m, skip)

    monkeypatch.setattr(IncrementalSpan, "add", add)
    monkeypatch.setattr(chains, "column_lows", lows)
    for K in complexes:
        rejected.clear()
        betti = chain_complex_of(K).homology()
        assert rejected == [betti[j] for j in range(K.dim, 0, -1)], K


def test_truncate_graded():
    v = GradedVS([1, 2, 1])
    assert v.truncate_le(1) == GradedVS([1, 2])


def test_les_third_dims():
    v2 = GradedVS([2, 2])
    ident = GradedMap(v2, v2, {0: MatrixQ.identity(2), 1: MatrixQ.identity(2)})
    assert ref_les_third_dims(ident).is_zero()
    beta = GradedMap(GradedVS([1]), GradedVS([2]))
    assert ref_les_third_dims(beta) == GradedVS([2, 1])


def test_tensor_blocks_layout():
    rng = random.Random(9)
    for _ in range(60):
        a = GradedVS({d: rng.randrange(0, 3) for d in range(-1, 4)})
        b = GradedVS({d: rng.randrange(0, 3) for d in range(0, 4)})
        total = a.convolve(b)
        for j in range(-3, 9):
            layout = a.tensor_blocks(b, j)
            qs = [q for q, _, _, _ in layout]
            assert qs == sorted(set(qs))
            assert all((da, db) == (a[j - q], b[q]) and da and db
                       for q, da, db, _ in layout)
            sizes = [da * db for _, da, db, _ in layout]
            assert [off for _, _, _, off in layout] == \
                list(accumulate(sizes, initial=0))[:-1]
            assert sum(sizes) == total[j]


def test_induced_map_by_hand():
    s1 = circle_complex()
    # multiplication by 2 is a chain self-map; it doubles every class
    two = ChainMap(s1, s1, {0: scaled(MatrixQ.identity(3), 2),
                            1: scaled(MatrixQ.identity(3), 2)})
    hm = induced_map(two)
    assert rank(hm.block(1)) == 1
    assert hm.block(1).entry(0, 0) == Fraction(2)
    assert hm.block(0).entry(0, 0) == Fraction(2)


def _relative_middle_pair(pm):
    """(delta^m, delta^(m-1)) on the cochains vanishing on the boundary, m
    the middle degree: the pair whose cocycles `cup_pairing` pairs."""
    K, m = pm.complex, pm.complex.dim // 2

    def rel(d):
        return [i for i, s in enumerate(K.simplices(d))
                if s not in pm.boundary]

    def delta(d):
        return boundary_matrix(K, d + 1).submatrix(rel(d), rel(d + 1)) \
            .transpose()

    return delta(m), delta(m - 1)


def _cycle_representative_pairs():
    # the homology pairs of the catalog complexes (I x S^1 x T^2 is left
    # out: the reference engine takes seconds on its 3706 simplices) ...
    for K in (circle(), interval(), sphere_boundary(2), sphere_boundary(3),
              torus7(), cp2_9(), cp2_minus_facet().complex, disk2().complex):
        c = chain_complex_of(K)
        for j in range(K.dim + 1):
            yield c.differential(j), c.differential(j + 1)
    # ... and the relative coboundary pairs of both bundled pairing files
    for stem in ("ixs1xt2", "cp2_minus_ball"):
        pm = sio.load_pairing(sio.load_json(DATA / f"{stem}.json"))
        yield _relative_middle_pair(pm)


def test_cycle_representatives_against_kernel_then_filter():
    pairs = list(_cycle_representative_pairs())
    assert len(pairs) == 29
    for d_out, d_in in pairs:
        lows_in = column_lows(d_in)
        new = cycle_representatives(d_out, lows_in)
        old = ref_cycle_representatives(d_out, d_in)
        assert len(new) == len(old)
        image = list(image_basis(d_in).basis)
        # the same span mod im d_in: new is independent mod im d_in and
        # lies in im d_in + span(old)
        assert ref_span_verdicts(d_out.cols, image + new) == \
            [True] * (len(image) + len(new))
        assert ref_span_verdicts(d_out.cols, image + old + new) == \
            [True] * (len(image) + len(old)) + [False] * len(new)
        cleared = set(lows_in.values())
        for v in new:
            image_of_v = {}
            for (i, j), x in d_out.items():
                if j in v:
                    image_of_v[i] = image_of_v.get(i, 0) + x * v[j]
            assert not any(image_of_v.values())
            assert v and cleared.isdisjoint(v)


def _definitions(tree):
    """(name, node) of every module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_one_clearing_routine_and_one_span_driver():
    """The clearing lemma is stated and used in one place: `column_lows` is
    given a skip set only by `chains.cleared_lows`, and `IncrementalSpan`,
    the reduction loop under every rank and low, is named only inside
    `qlinalg`."""
    src = Path(__file__).parent.parent / "src" / "strathom"
    span_modules, skip_callers = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name == "IncrementalSpan":
                span_modules.add(path.stem)
        for where, fn in _definitions(tree):
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                callee = call.func
                name = getattr(callee, "id", getattr(callee, "attr", None))
                if name == "column_lows" and (len(call.args) > 1
                                              or call.keywords):
                    skip_callers.add(f"{path.stem}.{where}")
    assert span_modules == {"qlinalg"}
    assert skip_callers == {"chains.cleared_lows"}
