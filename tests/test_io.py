import json
from fractions import Fraction
from pathlib import Path

import pytest

from strathom import io as sio
from strathom.catalog import circle, cp2_minus_facet, torus7
from strathom.chains import GradedVS
from strathom.qlinalg import rank
from strathom.simplicial import (
    OrientedPseudomanifoldWithBoundary,
    StratifiedComplex,
    chain_complex_of,
    cone,
    cup_pairing,
    ih_direct,
    product_complex,
    suspension,
)
from strathom.spaces import s2xt2_space, torus_link_space
from strathom.stratified import hi_dims, ih_ct_dims

DATA = Path(__file__).parent.parent / "src" / "strathom" / "data"


def test_space_round_trip():
    sp = s2xt2_space()
    again = sio.load_space(sio.space_to_dict(sp))
    assert again == sp
    assert sio.space_to_dict(again) == sio.space_to_dict(sp)


def test_rational_strings():
    m = sio.matrix_from_rows([["3/2", 1], [0, "-7"]], "test")
    assert m.entry(0, 0) == Fraction(3, 2)
    assert m.entry(1, 1) == Fraction(-7)
    assert sio.matrix_to_rows(m) == [["3/2", 1], [0, -7]]


def test_bundled_files_match_builders():
    # the bundled inputs are generated from the catalog; they must not drift
    assert sio.load_space(sio.load_json(DATA / "s2xt2_space.json")) == \
        s2xt2_space()
    assert sio.load_space(sio.load_json(DATA / "st2xs1_space.json")) == \
        torus_link_space()
    hi = hi_dims(sio.load_space(sio.load_json(DATA / "pinched_torus_space.json")),
                 0)
    assert hi[1] == 2


def test_bundled_cone_torus():
    st = sio.load_complex(sio.load_json(DATA / "cone_torus.json"))
    assert isinstance(st, StratifiedComplex)
    assert st.codim == 3
    assert len(st.sigma) == 1
    assert chain_complex_of(st.complex).homology() == GradedVS([1])


def test_bundled_cp2_and_product():
    pm = sio.load_complex(sio.load_json(DATA / "cp2_minus_ball.json"))
    assert isinstance(pm, OrientedPseudomanifoldWithBoundary)
    assert pm.complex.dim == 4
    prod = sio.load_complex(sio.load_json(DATA / "ixs1xt2.json"))
    assert isinstance(prod, OrientedPseudomanifoldWithBoundary)
    assert prod.complex.n_simplices(4) == 504


def test_complex_round_trip():
    # a cone, the same cone with a codim other than the default, and the
    # transition triangulation S(T^2) x S^1 with its two singular circles
    coned = cone(torus7())
    prod = product_complex(suspension(torus7()).complex, circle())
    sigma = [v for v in prod.vertices if v.split(",")[0] in ("N*", "S*")]
    for st in (coned, StratifiedComplex(coned.complex, ["*"], 2),
               StratifiedComplex(prod, sigma, 3)):
        data = sio.complex_to_dict(st)
        again = sio.load_complex(json.loads(sio.dump_canonical(data)))
        assert isinstance(again, StratifiedComplex)
        assert again.codim == st.codim
        assert again.sigma_labels() == st.sigma_labels()
        assert again.complex.f_vector() == st.complex.f_vector()
        for p in range(-1, st.codim + 2):
            assert ih_direct(again, p) == ih_direct(st, p), (st, p)


def test_oriented_round_trip():
    pm = cp2_minus_facet()
    again = sio.load_complex(sio.complex_to_dict(pm))
    assert isinstance(again, OrientedPseudomanifoldWithBoundary)
    assert again.orientation == pm.orientation
    assert again.boundary == pm.boundary


def test_pairing_from_matrix_and_from_triangulation():
    p = sio.load_pairing({"degree": 2, "matrix": [[1, 0], [0, "-1"]]})
    assert p.matrix.entry(1, 1) == Fraction(-1)
    with pytest.raises(sio.InputError):
        sio.load_pairing({"degree": 2, "matrix": [[1, 0]]})
    # a triangulation loads validated; its cup pairing is computed on demand
    pm = sio.load_pairing(sio.load_json(DATA / "cp2_minus_ball.json"))
    assert isinstance(pm, OrientedPseudomanifoldWithBoundary)
    p2 = cup_pairing(pm, 2)
    assert p2.degree == 2
    assert p2.matrix.rows == rank(p2.matrix) == 1


def test_suspension_product_kind_with_inline_complex():
    data = {
        "kind": "suspension_product",
        "link": {"vertices": ["a", "b", "c"],
                 "top_simplices": [["a", "b"], ["b", "c"], ["a", "c"]]},
        "sigma": {"betti": [1, 2, 1]},
        "label": "from-complex",
    }
    sp = sio.load_space(data)
    assert sp == s2xt2_space() or ih_ct_dims(sp, 0) == ih_ct_dims(s2xt2_space(), 0)
    # an oriented triangulation as the link, inline and by file reference
    oriented_circle = {**data["link"], "orientation": [1, 1, -1]}
    assert sio.load_space({**data, "link": oriented_circle}) == s2xt2_space()
    by_file = sio.load_space({**data, "link": {
        "file": str(DATA / "cp2_minus_ball.json")}})
    assert by_file.link_h == GradedVS([1, 0, 1])
    assert not hi_dims(by_file, 0).is_zero()


def test_missing_fields_name_the_field():
    with pytest.raises(sio.InputError, match="kind"):
        sio.load_space({})
    with pytest.raises(sio.InputError, match="m_betti"):
        sio.load_space({"kind": "isolated_cone", "link": [1, 1],
                        "beta_T": {}})
    with pytest.raises(sio.InputError, match="vertices"):
        sio.load_complex({"top_simplices": [["a"]]})


def test_canonical_dump_is_stable():
    d = sio.space_to_dict(s2xt2_space())
    assert sio.dump_canonical(d) == sio.dump_canonical(json.loads(
        sio.dump_canonical(d)))


def test_sigma_and_boundary_mutually_exclusive():
    with pytest.raises(sio.InputError, match="mutually exclusive"):
        sio.load_complex({"vertices": ["a", "b"],
                          "top_simplices": [["a", "b"]],
                          "sigma": ["a"], "boundary": [["a"]]})
