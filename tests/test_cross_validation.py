"""Oracle-versus-machinery agreement on genuine triangulations.

The brute-force allowable-chain computation and the Mayer-Vietoris
dimension assembly share nothing but the exact linear algebra underneath,
so agreement over full perversity bands on honest triangulations of the
same spaces checks both ends at once.
"""

from strathom.catalog import (
    circle,
    cp2_minus_facet,
    i_x_s1_x_t2,
    interval,
    torus7,
)
from strathom.simplicial import (
    OrientedPseudomanifoldWithBoundary,
    StratifiedComplex,
    ih_direct,
    product_complex,
    suspension,
)
from strathom.spaces import (
    cp2_point_space,
    pinched_torus_space,
    s2xt2_space,
    suspension_product_space,
)
from strathom.stratified import hi_dims, ih_ct_dims, ih_space_dims

from oracles import ref_hi_quotient


def test_suspension_of_torus_oracle_vs_model():
    st2 = suspension(torus7())
    model = suspension_product_space([1, 2, 1], [1])
    for p in range(-3, 5):
        assert ih_direct(st2, p) == ih_space_dims(model, p), p


def triangulated_transition():
    """S(T^2) x S^1 with its two singular circles flagged."""
    prod = product_complex(suspension(torus7()).complex, circle())
    sigma = [v for v in prod.vertices if v.split(",")[0] in ("N*", "S*")]
    return StratifiedComplex(prod, sigma, codim=3)


def test_transition_triangulation_oracle_vs_model():
    # the 4-dimensional transition of the running example, as an honest
    # 336-facet triangulation: the oracle must reproduce the whole
    # perversity sweep of the algebraic model, extremes included
    ct = triangulated_transition()
    sp = s2xt2_space()
    for q in range(-2, 4):
        assert ih_direct(ct, q) == ih_ct_dims(sp, q), q


def cylinder():
    """I x S^1 with its two end circles as boundary."""
    cyl = product_complex(interval(), circle())
    ends = [s for s in cyl.simplices(1)
            if len({cyl.vertices[v].split(",")[0] for v in s}) == 1]
    return OrientedPseudomanifoldWithBoundary(
        cyl, [cyl.labels(s) for s in ends])


def test_hi_quotient_oracle_vs_model():
    # the quotient C(Mbar)/tau shares no Mayer-Vietoris code with hi_dims
    cp2 = cp2_minus_facet()
    for p in range(-3, 7):
        assert ref_hi_quotient(cp2, p) == hi_dims(cp2_point_space(), p), p
    cyl = cylinder()
    for p in range(-3, 5):
        assert ref_hi_quotient(cyl, p) == hi_dims(pinched_torus_space(), p), p


def test_hi_quotient_oracle_duality():
    # HI^p_j = HI^{l-1-p}_{n-j}, the paper's duality, on the oracle alone
    for pm in (cp2_minus_facet(), cylinder(), i_x_s1_x_t2()):
        n = pm.complex.dim
        l = n - 1
        for p in range(-4, l + 5):
            hi, dual = ref_hi_quotient(pm, p), ref_hi_quotient(pm, l - 1 - p)
            assert all(hi[j] == dual[n - j] for j in range(n + 1)), (pm, p)
