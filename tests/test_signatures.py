import pytest

from strathom.catalog import cp2_9, cp2_minus_facet, disk2, i_x_s1_x_t2, torus7
from strathom.chains import GradedVS
from strathom.qlinalg import MatrixQ
from strathom.simplicial import (
    OrientedPseudomanifoldWithBoundary,
    PairingData,
    chain_complex_of,
    cup_pairing,
)
from strathom.signatures import (
    TheoremNotApplicable,
    WittVerdict,
    ct_middle_image_dim,
    novikov_signature,
    verify_theorem_sig,
    witt_check,
)
from strathom.spaces import (
    cp2_point_space,
    s2xt2_space,
    suspension_product_space,
    torus_link_space,
)


def test_cp2_triangulation_is_the_right_complex():
    cx = cp2_9()
    assert cx.f_vector() == (9, 36, 84, 90, 36)
    assert chain_complex_of(cx).homology() == GradedVS([1, 0, 1, 0, 1])


def test_witt_check():
    assert witt_check(s2xt2_space()) == WittVerdict(True, "link-dim-odd")
    s2_link = suspension_product_space([1, 0, 1], [1, 1])
    assert witt_check(s2_link) == WittVerdict(True, "middle-link-cohomology-zero")
    assert witt_check(torus_link_space()) == WittVerdict(False, "fails")
    odd = suspension_product_space([1, 1], [1, 1])
    with pytest.raises(TheoremNotApplicable):
        witt_check(odd)


def test_novikov_signature_cp2_minus_ball():
    p = cup_pairing(cp2_minus_facet(), 2)
    assert p.matrix.rows == 1
    assert novikov_signature(p) == 1


def test_novikov_signature_product_is_zero():
    p = cup_pairing(i_x_s1_x_t2(), 2)
    assert p.matrix.rows == 3
    assert p.matrix.is_zero()  # the image form vanishes: everything restricts
    assert novikov_signature(p) == 0


def test_novikov_signature_empty_pairing():
    p = cup_pairing(disk2(), 1)
    assert novikov_signature(p) == 0


def test_novikov_signature_refuses_odd_degree():
    skew = PairingData(1, MatrixQ.from_rows([[0, 1], [-1, 0]]))
    with pytest.raises(TheoremNotApplicable, match="odd middle degree 1"):
        novikov_signature(skew)


def test_novikov_orientation_reversal_flips_sign():
    pm = cp2_minus_facet()
    assert novikov_signature(cup_pairing(pm, 2)) == \
        -novikov_signature(cup_pairing(pm.reversed_orientation(), 2))


def test_novikov_congruence_invariance():
    # change of basis of the cohomology inputs is a congruence of the matrix
    p = cup_pairing(cp2_minus_facet(), 2)
    g = MatrixQ.from_rows([[3]])
    congruent = PairingData(2, g.transpose() @ p.matrix @ g)
    assert novikov_signature(congruent) == novikov_signature(p)


def test_closed_manifold_novikov_is_cup_signature():
    # boundaryless: relative = absolute, the pairing is the plain cup form
    pm = cp2_minus_facet()
    closed = OrientedPseudomanifoldWithBoundary(cp2_9())
    sig_closed = abs(novikov_signature(cup_pairing(closed, 2)))
    assert sig_closed == 1


def test_perverse_signature_and_image_dim():
    sp = s2xt2_space()
    pairing = cup_pairing(i_x_s1_x_t2(), 2)
    assert novikov_signature(pairing) == 0
    assert ct_middle_image_dim(sp) == 0  # the q=0 -> 1 middle map is zero
    cp2 = cp2_point_space()
    pairing2 = cup_pairing(cp2_minus_facet(), 2)
    assert novikov_signature(pairing2) == 1
    assert ct_middle_image_dim(cp2) == 1


def test_verify_theorem_sig_running_example():
    rep = verify_theorem_sig(s2xt2_space(), cup_pairing(i_x_s1_x_t2(), 2))
    assert rep.all_equal
    assert (rep.sigma_Mbar, rep.sigma_perverse_CT, rep.sigma_IH_X,
            rep.sigma_HI_X, rep.sigma_Z) == (0, 0, 0, 0, 0)
    assert rep.middle_degree == 2
    # falsifiable dimensions: middle HI of X is 4 (= (0,2,4,2,0) at j=2)
    assert rep.hi_middle_dim_X == 4
    assert rep.ct_image_dim == 0


def test_verify_theorem_sig_cp2():
    rep = verify_theorem_sig(cp2_point_space(), cup_pairing(cp2_minus_facet(), 2))
    assert rep.all_equal
    assert rep.sigma_Mbar == 1
    assert rep.hi_middle_dim_X == 1
    assert rep.ih_middle_dim_X == 1
    assert rep.ct_image_dim == 1


def test_verify_theorem_sig_dimension_two_mod_four():
    # n = 6: Witt (odd link), but the middle pairing is skew, so every
    # signature in the report is zero regardless of the supplied pairing
    sp = suspension_product_space([1, 1], [1, 0, 0, 0, 1])
    assert sp.n == 6
    rep = verify_theorem_sig(sp, cup_pairing(i_x_s1_x_t2(), 2))
    assert rep.all_equal and rep.sigma_Mbar == 0
    assert rep.middle_degree == 3


def test_verify_theorem_sig_rejects_non_witt():
    pairing = cup_pairing(i_x_s1_x_t2(), 2)
    with pytest.raises(TheoremNotApplicable):
        verify_theorem_sig(torus_link_space(), pairing)


def test_cup_pairing_subdivision_invariance():
    # the disk's empty degree-1 pairing and the torus's rank-2 symplectic
    # degree-1 pairing both survive one barycentric subdivision; the
    # 4-dimensional inputs are too large to subdivide at desk scale
    from strathom.qlinalg import rank
    from strathom.simplicial import barycentric_complex

    pm = disk2()
    sub, _ = barycentric_complex(pm.complex)
    bd = []
    circle_edges = [{"a", "b"}, {"b", "c"}, {"a", "c"}]
    for s in sub.simplices(1):
        labs = [set(lab.strip("<>").split(".")) for lab in sub.labels(s)]
        if any(all(l <= e for l in labs) for e in circle_edges):
            bd.append(sub.labels(s))
    pm_sub = OrientedPseudomanifoldWithBoundary(sub, boundary_simplices=bd)
    assert cup_pairing(pm_sub, 1).matrix.rows == cup_pairing(pm, 1).matrix.rows == 0

    t = OrientedPseudomanifoldWithBoundary(torus7())
    t_sub = OrientedPseudomanifoldWithBoundary(barycentric_complex(torus7())[0])
    assert rank(cup_pairing(t, 1).matrix) == rank(cup_pairing(t_sub, 1).matrix) == 2


def test_s2xs2_hyperbolic_pairing():
    from strathom.catalog import sphere_boundary
    from strathom.qlinalg import signature_sym
    from strathom.simplicial import product_complex
    prod = product_complex(sphere_boundary(2), sphere_boundary(2))
    pm = OrientedPseudomanifoldWithBoundary(prod)
    p = cup_pairing(pm, 2)
    sig = signature_sym(p.matrix)
    assert (sig.pos, sig.neg, sig.null) == (1, 1, 0)
    assert novikov_signature(p) == 0
