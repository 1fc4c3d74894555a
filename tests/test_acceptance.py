"""Acceptance suite: one test per exit criterion, exact arithmetic, no
tolerances.  Each test prints a single pass line; any assertion failure is
the corresponding criterion failing.
"""

import json
import random
from pathlib import Path

import pytest

from strathom.catalog import (
    circle,
    cp2_minus_facet,
    i_x_s1_x_t2,
    sphere_boundary,
    torus7,
)
from strathom.chains import GradedVS, tensor_complex
from strathom.cli import main
from strathom.modes import ModeSpec, total_ext_dims
from strathom.signatures import (
    TheoremNotApplicable,
    verify_theorem_sig,
    witt_check,
)
from strathom.simplicial import (
    barycentric_subdivide,
    cone,
    cup_pairing,
    ih_direct,
    suspension,
)
from strathom.spaces import (
    cp2_point_space,
    pinched_torus_space,
    random_algebraic_space,
    random_orientable_space,
    s2xt2_space,
    torus_link_space,
)
from strathom.stratified import (
    cone_formula,
    hi_dims,
    ig_dims,
    ih_ct_dims,
    ih_space_dims,
    verify_duality,
    verify_theorem_hom,
)

from oracles import ref_hi_extreme, ref_les_third_dims

DATA = Path(__file__).parent.parent / "src" / "strathom" / "data"
S2XT2 = str(DATA / "s2xt2_space.json")

SWEEP_DIMS = {
    0: [1, 1, 1, 0],
    1: [3, 3, 1, 1],
    2: [3, 2, 2, 3],
    3: [1, 1, 3, 3],
    4: [0, 1, 1, 1],
}
SWEEP_ANNOTATIONS = {
    0: ["iso", "iso", "zero"],
    1: ["iso", "onto", "zero"],
    2: ["onto", "zero", "inj"],
    3: ["zero", "inj", "iso"],
    4: ["zero", "iso", "iso"],
}


def _ok(msg):
    print(f"PASS {msg}")


def test_c01_table1_reproduction(capsys):
    code = main(["--json", "table", S2XT2, "--q-range", "-1..2"])
    out = capsys.readouterr().out
    assert code == 0
    result = json.loads(out)["result"]
    assert result["q_values"] == [-1, 0, 1, 2]
    for j in range(5):
        assert result["dims"][str(j)] == SWEEP_DIMS[j], f"row {j}"
        assert result["annotations"][str(j)] == SWEEP_ANNOTATIONS[j], f"row {j}"
    with capsys.disabled():
        _ok("criterion 1: table reproduces all 20 reference dimensions "
            "and 15 map annotations of the running example")


def test_c02_hi_of_running_example():
    hi = hi_dims(s2xt2_space(), 0)
    assert hi.as_tuple(0, 4) == (0, 2, 4, 2, 0)
    _ok("criterion 2: reduced HI at p(2)=0 is (0,2,4,2,0)")


def test_c03_ig_list():
    sp = s2xt2_space()
    expected = {(3, 0): 0, (2, 1): 2, (1, 2): 4, (0, 3): 2, (-1, 4): 0}
    for (k, j), want in expected.items():
        assert ig_dims(sp, k, j) == want, (k, j)
    _ok("criterion 3: IG^(3)_0..IG^(-1)_4 equal (0,2,4,2,0)")


def test_c04_theorem_sweep():
    sp = s2xt2_space()
    for p in range(-3, 5):
        verdicts = verify_theorem_hom(sp, p, range(0, 5))
        assert all(v.ok for v in verdicts), (p, verdicts)
    rng = random.Random(20240229)
    for i in range(25):
        space = random_algebraic_space(rng, n_max=6, b_max=4)
        for p in range(-5, 8):
            verdicts = verify_theorem_hom(
                space, p, range(0, space.n + 1))
            assert all(v.ok for v in verdicts), (i, space, p)
    _ok("criterion 4: homological theorem holds on the running example "
        "(p in -3..4) and on 25 randomized spaces (p in -5..7)")


def test_c05_pinched_torus():
    pt = pinched_torus_space()
    assert hi_dims(pt, 0)[1] == 2
    assert ih_space_dims(pt, 0)[1] == 0
    _ok("criterion 5: pinched torus has reduced HI_1 = 2 and middle IH_1 = 0")


def test_c06_extremes():
    bundled = [s2xt2_space(), pinched_torus_space(), cp2_point_space(),
               torus_link_space()]
    rng = random.Random(606)
    spaces = bundled + [random_algebraic_space(rng) for _ in range(10)]
    for sp in spaces:
        big = sp.n + 2
        for p in (-big, big + sp.l):
            assert hi_dims(sp, p) == \
                ref_hi_extreme(sp, p), (sp, p)
        assert ih_ct_dims(sp, -big) == sp.m_h, sp
        assert ih_ct_dims(sp, big) == ref_les_third_dims(sp.boundary_restriction)
    _ok("criterion 6: extreme perversities match the shortcut values on "
        "every bundled and randomized space")


def test_c07_oracle_equivalence():
    def expected_cone(link_betti, link_dim, p):
        return cone_formula(GradedVS(link_betti), link_dim, p)

    def expected_susp(link_betti, link_dim, p):
        cut = link_dim - p
        dims = {}
        for j, b in enumerate(link_betti):
            if j < cut:
                dims[j] = dims.get(j, 0) + b
            else:
                dims[j + 1] = dims.get(j + 1, 0) + b
        return GradedVS(dims)

    cases = [
        (cone(circle()), [1, 1], 1, expected_cone),
        (cone(torus7()), [1, 2, 1], 2, expected_cone),
        (cone(sphere_boundary(2)), [1, 0, 1], 2, expected_cone),
        (suspension(circle()), [1, 1], 1, expected_susp),
    ]
    for st, betti, ldim, expected in cases:
        sub = barycentric_subdivide(st)
        for p in range(-3, 5):
            assert ih_direct(sub, p) == expected(betti, ldim, p), (st, p)
    _ok("criterion 7: the brute-force oracle matches the cone formula on "
        "the subdivided cone/suspension family for p in -3..4")


def test_c08_duality_sweeps():
    sp = s2xt2_space()
    for p in range(-2, 4):
        assert verify_duality(sp, p).ok, p
    rng = random.Random(808)
    for _ in range(10):
        space = random_orientable_space(rng)
        for p in range(-2, space.l + 2):
            assert verify_duality(space, p).ok, \
                (space, p)
    _ok("criterion 8: duality holds at complementary extended perversities "
        "on the running example and randomized orientable models")


def test_c09_kunneth_property():
    import sys
    sys.path.insert(0, str(Path(__file__).parent))
    from test_chains import _random_complex
    from oracles import convolve

    rng = random.Random(909)
    checked = 0
    while checked < 50:
        a, ba = _random_complex(rng, max_top=3, max_dim=2)
        b, bb = _random_complex(rng, max_top=2, max_dim=2)
        if sum(a.spaces.as_tuple()) + sum(b.spaces.as_tuple()) > 30:
            continue
        t = tensor_complex(a, b)
        la = [ba[j] for j in range(max(ba.top, 0) + 1)]
        lb = [bb[j] for j in range(max(bb.top, 0) + 1)]
        assert t.homology() == GradedVS(convolve(la, lb)), (la, lb)
        checked += 1
    _ok("criterion 9: Kunneth convolution verified on 50 randomized "
        "complexes of total dimension <= 30")


def test_c10_signatures():
    rep0 = verify_theorem_sig(s2xt2_space(), cup_pairing(i_x_s1_x_t2(), 2))
    assert rep0.all_equal and rep0.sigma_Mbar == 0
    rep1 = verify_theorem_sig(cp2_point_space(),
                              cup_pairing(cp2_minus_facet(), 2))
    assert rep1.all_equal and rep1.sigma_Mbar == 1
    assert not witt_check(torus_link_space()).is_witt
    with pytest.raises(TheoremNotApplicable):
        verify_theorem_sig(torus_link_space(), cup_pairing(i_x_s1_x_t2(), 2))
    _ok("criterion 10: signature report is 0 on the running example and +1 "
        "on the projective-plane space; the torus-link space is rejected")


def test_c11_hodge_desk_scale():
    harmonic = total_ext_dims(ModeSpec(torus_dim=2)).total_dims
    hi = hi_dims(s2xt2_space(), 0).as_tuple(0, 4)
    assert harmonic == hi == (0, 2, 4, 2, 0)
    _ok("criterion 11: harmonic-mode count equals reduced HI, both "
        "(0,2,4,2,0), computed by disjoint modules")


def test_c12_scope_documented():
    readme = " ".join(
        (Path(__file__).parent.parent / "README.md").read_text().split())
    assert "not reproducible at desk scale" in readme.lower()
    assert "weight-conversion arithmetic" in readme
    assert "duality" in readme
    # and the property coverage it points to actually exists: the weight
    # arithmetic is exact and the mode count is palindromic (self-dual)
    from strathom.stratified import hodge_weights
    assert hodge_weights(0, 1, 4, 2) == (0, 0)
    dims = total_ext_dims(ModeSpec(torus_dim=3)).total_dims
    assert dims == tuple(reversed(dims))
    _ok("criterion 12: the analytic scope limitation is documented in the "
        "README and covered by the weight/duality property tests")
