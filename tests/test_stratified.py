import random
from fractions import Fraction

import pytest

from strathom.chains import GradedVS
from strathom.qlinalg import DimensionMismatch, MatrixQ, rank
from strathom.spaces import (
    cp2_point_space,
    isolated_cone_space,
    pinched_torus_space,
    random_algebraic_space,
    random_orientable_space,
    s2xt2_space,
    suspension_product_space,
    torus_link_space,
)
from strathom.stratified import (
    ModelError,
    TwoStrataSpace,
    annotate,
    check_lefschetz,
    compactify_to_isolated,
    cone_formula,
    conifold_transition,
    gamma_rank,
    hi_dims,
    hodge_weights,
    ih_ct_dims,
    ih_space_dims,
    ih_table,
    ig_dims,
    middle_perversities,
    verify_duality,
    verify_theorem_hom,
)
from strathom.stratified import _rank_beta, _swapped_columns

from oracles import (
    convolve,
    hstack,
    ref_hi_extreme,
    ref_les_third_dims,
    vstack,
)

# Reference perversity sweep of the running example, derived by hand from
# the Mayer-Vietoris assembly over the cone neighborhood: rows j = 0..4,
# columns q = -1, 0, 1, 2, plus the canonical-map annotations between
# adjacent columns.
SWEEP_DIMS = {
    0: (1, 1, 1, 0),
    1: (3, 3, 1, 1),
    2: (3, 2, 2, 3),
    3: (1, 1, 3, 3),
    4: (0, 1, 1, 1),
}
SWEEP_ANNOTATIONS = {
    0: ("iso", "iso", "zero"),
    1: ("iso", "onto", "zero"),
    2: ("onto", "zero", "inj"),
    3: ("zero", "inj", "iso"),
    4: ("zero", "iso", "iso"),
}


def test_kunneth_basis_dims():
    sp = s2xt2_space()
    assert sp.boundary_h() == GradedVS([2, 6, 6, 2])
    assert sp.boundary_h().as_tuple(0, 3) == \
        tuple(convolve([1, 1], [2, 4, 2]))
    pt = pinched_torus_space()
    assert pt.boundary_h() == pt.link_h  # Sigma a point
    sig_only = suspension_product_space([1], [1, 2, 1])
    assert sig_only.boundary_h() == sig_only.sigma_h  # link a point


def test_cone_formula():
    torus = GradedVS([1, 2, 1])
    assert cone_formula(torus, 2, 0) == GradedVS([1, 2])
    assert cone_formula(torus, 2, 2) == GradedVS()
    assert cone_formula(torus, 2, 1) == GradedVS([1])
    assert cone_formula(torus, 2, -5) == torus


def test_ih_ct_table1_columns():
    sp = s2xt2_space()
    assert ih_ct_dims(sp, -1).as_tuple(0, 4) == (1, 3, 3, 1, 0)
    assert ih_ct_dims(sp, 0).as_tuple(0, 4) == (1, 3, 2, 1, 1)
    assert ih_ct_dims(sp, 1).as_tuple(0, 4) == (1, 1, 2, 3, 1)
    assert ih_ct_dims(sp, 2).as_tuple(0, 4) == (0, 1, 3, 3, 1)


def test_ih_table_full_reproduction():
    rep = ih_table(s2xt2_space(), -1, 2)
    for j in range(5):
        assert rep.dims[j] == SWEEP_DIMS[j], j
        assert rep.annotations[j] == SWEEP_ANNOTATIONS[j], j


def test_gamma_rank_examples():
    sp = s2xt2_space()
    assert gamma_rank(sp, -1, 2) == 2   # onto R^2
    assert gamma_rank(sp, 0, 2) == 0    # zero map
    assert gamma_rank(sp, 1, 3) == 3    # iso


def test_gamma_is_surjective_in_degree_zero():
    rng = random.Random(41)
    for _ in range(10):
        sp = random_algebraic_space(rng)
        for q in range(-3, sp.c + 2):
            assert gamma_rank(sp, q, 0) == ih_ct_dims(sp, q + 1)[0]


def test_ig_values():
    sp = s2xt2_space()
    assert ig_dims(sp, 3, 0) == 0
    assert ig_dims(sp, 2, 1) == 2
    assert ig_dims(sp, 1, 2) == 4
    assert ig_dims(sp, 0, 3) == 2
    assert ig_dims(sp, -1, 4) == 0


def test_hi_dims_running_example():
    sp = s2xt2_space()
    assert hi_dims(sp, 0).as_tuple(0, 4) == (0, 2, 4, 2, 0)


def test_hi_dims_pinched_torus():
    pt = pinched_torus_space()
    assert hi_dims(pt, 0)[1] == 2
    assert ih_space_dims(pt, 0)[1] == 0


def test_hi_dims_extreme_regimes():
    sp = s2xt2_space()
    # k <= 0: homology of Mbar itself (unreduced)
    assert hi_dims(sp, 1).as_tuple(0, 4) == (1, 3, 3, 1, 0)
    assert hi_dims(sp, 5).as_tuple(0, 4) == (1, 3, 3, 1, 0)
    # negative: homology of the pair
    assert hi_dims(sp, -1).as_tuple(0, 4) == (0, 1, 3, 3, 1)


def test_hi_extreme():
    sp = s2xt2_space()
    assert ref_hi_extreme(sp, -1).as_tuple(0, 4) == (0, 1, 3, 3, 1)
    assert ref_hi_extreme(sp, 1).as_tuple(0, 4) == (1, 3, 3, 1, 0)
    cp2 = cp2_point_space()
    assert ref_hi_extreme(cp2, -1).as_tuple(0, 4) == (0, 0, 1, 0, 1)
    with pytest.raises(ModelError):
        ref_hi_extreme(sp, 0)


def test_extremes_on_random_spaces():
    rng = random.Random(99)
    for _ in range(10):
        sp = random_algebraic_space(rng)
        big = sp.n + 3
        assert hi_dims(sp, -big) == \
            ref_hi_extreme(sp, -big)
        assert hi_dims(sp, big) == \
            ref_hi_extreme(sp, big)
        assert ih_ct_dims(sp, -big) == sp.m_h
        assert ih_ct_dims(sp, big) == ref_les_third_dims(
            sp.boundary_h(), sp.m_h, sp.boundary_restriction)


def test_conifold_transition_involution():
    for sp in (s2xt2_space(), pinched_torus_space(), cp2_point_space()):
        ct = conifold_transition(sp)
        back = conifold_transition(ct)
        assert back.link_h == sp.link_h
        assert back.sigma_h == sp.sigma_h
        assert back.m_h == sp.m_h
        assert back.boundary_restriction == sp.boundary_restriction
    rng = random.Random(4)
    for _ in range(10):
        sp = random_algebraic_space(rng)
        back = conifold_transition(conifold_transition(sp))
        assert back.boundary_restriction == sp.boundary_restriction


def test_swapped_columns_are_a_permutation():
    rng = random.Random(6)
    models = [s2xt2_space(), pinched_torus_space(), cp2_point_space(),
              torus_link_space()]
    models += [random_algebraic_space(rng, n_max=8) for _ in range(20)]
    for sp in models:
        b = sp.boundary_h()
        for j in range(0, sp.n + 1):
            assert sorted(_swapped_columns(sp, j)) == list(range(b[j])), (sp, j)
            assert sum(dl * ds for _, dl, ds, _
                       in sp.link_h.tensor_blocks(sp.sigma_h, j)) == b[j]


def test_conifold_transition_of_running_example_matches_table():
    # X = S^2 x T^2 has CT(X) = S(T^2) x S^1; the swapped model's own
    # conifold transition is X again, so its IH must reproduce the sweep
    ct_model = torus_link_space()
    x_again = conifold_transition(ct_model)
    assert ih_ct_dims(x_again, 0).as_tuple(0, 4) == (1, 3, 2, 1, 1)


def test_compactify_to_isolated():
    sp = s2xt2_space()
    z = compactify_to_isolated(sp)
    assert z.link_h == GradedVS([2, 6, 6, 2])
    assert z.s == 0 and z.l == 3 and z.n == 4
    # extremes of Z match extremes of X: both are H(Mbar, bd) / H(Mbar)
    assert hi_dims(z, -1) == hi_dims(sp, -1)
    assert hi_dims(z, z.l) == hi_dims(sp, 1)
    # a point stratum stays a point stratum with identical dims
    cp2 = cp2_point_space()
    z2 = compactify_to_isolated(cp2)
    assert z2.link_h == cp2.link_h and z2.m_h == cp2.m_h


def test_verify_theorem_hom_running_example():
    sp = s2xt2_space()
    for p in range(-3, 5):
        verdicts = verify_theorem_hom(sp, p, range(0, 5))
        assert all(v.ok for v in verdicts), (p, verdicts)


def test_verify_theorem_hom_random_sweep():
    rng = random.Random(2024)
    for _ in range(12):
        sp = random_algebraic_space(rng)
        for p in range(-5, 8):
            verdicts = verify_theorem_hom(
                sp, p, range(0, sp.n + 1))
            assert all(v.ok for v in verdicts), (sp, p, verdicts)


def test_verify_theorem_coh_matches():
    # the cohomological cutoff pair (k = l - p, q = j + 1 - k) names the
    # mixed group IG^(c-q)_j, the one the homological form reads
    sp = s2xt2_space()
    for p in range(-2, 4):
        k = sp.l - p
        for j in range(0, 5):
            assert sp.c - (j + 1 - k) == sp.n - 1 - p - j
        verdicts = verify_theorem_hom(sp, p, range(0, 5))
        assert all(v.ok for v in verdicts), (p, verdicts)


def test_verify_duality_running_example():
    sp = s2xt2_space()
    v = verify_duality(sp, 0)
    assert v.ok
    # a duality instance inside the sweep: dim IH^0_1 = dim IH^1_3 = 3
    assert ih_ct_dims(sp, 0)[1] == ih_ct_dims(sp, 1)[3] == 3


def test_verify_duality_random_orientable():
    rng = random.Random(77)
    for _ in range(10):
        sp = random_orientable_space(rng)
        for p in range(-2, sp.l + 2):
            assert verify_duality(sp, p).ok, (sp, p)


def test_duality_trivial_sphere_model():
    # hM a point, link a sphere, stratum a point: everything palindromic
    from strathom.spaces import isolated_cone_space
    for l in (1, 2, 3):
        link = [1] + [0] * (l - 1) + [1]
        sp = isolated_cone_space(link, [1], {0: MatrixQ.from_rows([[1]])},
                                 label="disk-like")
        for p in range(-2, l + 2):
            assert verify_duality(sp, p).ok, (l, p)


def test_duality_requires_oriented_flag():
    rng = random.Random(5)
    sp = random_algebraic_space(rng)
    assert not sp.oriented
    with pytest.raises(ModelError):
        verify_duality(sp, 0)


def test_lefschetz_check():
    rng = random.Random(11)
    models = [s2xt2_space(), pinched_torus_space(), cp2_point_space(),
              torus_link_space()]
    models += [random_orientable_space(rng, n_max=8) for _ in range(20)]
    for sp in models:
        for model in (sp, conifold_transition(sp), compactify_to_isolated(sp)):
            check_lefschetz(model)
    # one boundary circle cannot bound a surface with H = (1, 1)
    sp = isolated_cone_space([1, 1], [1, 1], {0: MatrixQ.from_rows([[1]]),
                                              1: MatrixQ.from_rows([[5]])})
    with pytest.raises(ModelError, match="beta_T.*degree 0"):
        check_lefschetz(sp)


def test_hodge_weights():
    assert hodge_weights(0, 1, 4, 0) == (Fraction(0), Fraction(2))
    assert hodge_weights(1, 3, 6, 0)[0] == Fraction(0)
    assert hodge_weights(0, 1, 4, 2) == (Fraction(0), Fraction(0))
    c_fs, c_fc = hodge_weights(2, 3, 8, 3)
    assert c_fs == Fraction(-1) and c_fc == Fraction(0)


def test_euler_characteristic_identity():
    # chi(HI) must match the Euler characteristic computed from the model:
    # chi(Mbar) - chi(Sigma) * chi(truncated link) with the reduced
    # degree-0 convention.  Both sides are computed numbers, so we compare
    # HI against its Mayer-Vietoris prediction degree by degree instead of
    # an opaque total.
    rng = random.Random(314)
    for _ in range(8):
        sp = random_algebraic_space(rng)
        for p in range(-2, sp.l + 2):
            hi = hi_dims(sp, p)
            k = sp.l - p
            chi_link_low = sum((-1) ** r * sp.link_h[r] for r in range(0, k))
            chi_r = (1 if k > 0 else 1 + sp.boundary_h()[0]) + sum(
                (-1) ** j * sum(dl * ds for t, dl, ds, _
                                in sp.link_h.tensor_blocks(sp.sigma_h, j)
                                if t <= j - k)
                for j in range(1, sp.n + 1))
            chi_b = sp.boundary_h().euler()
            chi_mv = sp.m_h.euler() + chi_r - chi_b - 1
            assert hi.euler() == chi_mv, (sp, p)
            # closed forms: chi(R) - 1 = chi(tau_{>=k} L) * chi(Sigma) for
            # k > 0 and chi(B) for k <= 0, whence
            # chi(HI) = chi(Mbar) - chi(tau_{<k} L) * chi(Sigma) - [k > 0]
            if k > 0:
                chi_link_high = sp.link_h.euler() - chi_link_low
                assert chi_r - 1 == chi_link_high * sp.sigma_h.euler()
                assert hi.euler() == sp.m_h.euler() \
                    - chi_link_low * sp.sigma_h.euler()
            else:
                assert chi_r - 1 == chi_b
                assert hi.euler() == sp.m_h.euler()


def test_middle_perversities():
    assert middle_perversities(3) == (0, 1)
    assert middle_perversities(4) == (1, 1)
    assert middle_perversities(2) == (0, 0)
    assert middle_perversities(1) == (-1, 0)


def test_annotate_precedence():
    assert annotate(0, 1, 0) == "zero"
    assert annotate(1, 0, 0) == "zero"
    assert annotate(2, 2, 2) == "iso"
    assert annotate(0, 0, 0) == "iso"
    assert annotate(3, 1, 1) == "onto"
    assert annotate(1, 3, 1) == "inj"
    assert annotate(3, 3, 2) == "map"


def test_model_validation():
    with pytest.raises(ModelError):
        suspension_product_space([1, 1], [0, 1])  # empty stratum
    with pytest.raises(ModelError):
        TwoStrataSpace(4, 1, 1, GradedVS([1, 1]), GradedVS([1]),
                       GradedVS([1]), None)  # n mismatch before map check
    # degree-0 augmentation compatibility
    link_h = GradedVS([1])
    with pytest.raises(ModelError):
        TwoStrataSpace(1, 0, 0, link_h, GradedVS([1]), GradedVS([1]),
                       {0: MatrixQ.from_rows([[2]])})


def test_boundary_restriction_blocks():
    """The model checks each block of beta against dim H_j(M) x dim B_j,
    keeps only the nonzero ones, and `block(j)` reads any degree."""
    link_h, sigma_h, m_h = GradedVS([1, 1]), GradedVS([1]), GradedVS([1, 1])
    beta = {0: MatrixQ.from_rows([[1]]), 1: MatrixQ.from_rows([[1, 0]])}
    with pytest.raises(DimensionMismatch,
                       match="block in degree 1 is 1x2, expected 1x1"):
        TwoStrataSpace(2, 1, 0, link_h, sigma_h, m_h, beta)
    sp = TwoStrataSpace(2, 1, 0, link_h, sigma_h, m_h,
                        {0: MatrixQ.from_rows([[1]])})
    assert sp.block(1) == MatrixQ(1, 1) and sp.block(5) == MatrixQ(0, 0)
    with_zero = TwoStrataSpace(2, 1, 0, link_h, sigma_h, m_h,
                               {0: MatrixQ.from_rows([[1]]), 1: MatrixQ(1, 1)})
    assert with_zero == sp and with_zero.boundary_restriction == \
        sp.boundary_restriction == {0: MatrixQ.from_rows([[1]])}


def test_report_rendering_is_deterministic():
    rep1 = ih_table(s2xt2_space(), -1, 2)
    rep2 = ih_table(s2xt2_space(), -1, 2)
    assert rep1.render() == rep2.render()
    assert rep1.to_dict() == rep2.to_dict()
    assert "zero" in rep1.render()


# ---------------------------------------------------------------------------
# The explicit-matrix route: every map of the Mayer-Vietoris sequences is
# built as a matrix and eliminated on its own, with no shared rank cache.
# The calculus must agree with it; it reads ranks of one map family.

def _projection(sp, j, a):
    """Rows picking the B_j coordinates in blocks with Sigma-degree <= a."""
    kept = [off + i for t, dl, ds, off
            in sp.link_h.tensor_blocks(sp.sigma_h, j) if t <= a
            for i in range(dl * ds)]
    return MatrixQ(len(kept), sp.boundary_h()[j],
                   {(r, c): Fraction(1) for r, c in enumerate(kept)})


def _beta_matrix(sp, j, a):
    return vstack([sp.block(j), _projection(sp, j, a)])


def _coker_ker(m):
    r = rank(m)
    return m.rows - r, m.cols - r


def _ih_oracle(sp, q, j):
    a = sp.c - 2 - q
    coker = _coker_ker(_beta_matrix(sp, j, a))[0]
    return coker + (_coker_ker(_beta_matrix(sp, j - 1, a))[1] if j else 0)


def _gamma_oracle(sp, q, j):
    """IH^q_j minus the kernel of the canonical map, that kernel being
    coker beta_j minus the rank of the map F = id (+) projection induced
    between the cokernels of beta_j and beta'_j = beta_j at cutoff a - 1."""
    a = sp.c - 2 - q
    beta, beta_next = _beta_matrix(sp, j, a), _beta_matrix(sp, j, a - 1)
    # I_j^(a-1) is the leading run of blocks of I_j^(a), so F keeps the
    # first rows of H_j(M) (+) I_j^(a)
    f = MatrixQ(beta_next.rows, beta.rows,
                {(i, i): Fraction(1) for i in range(beta_next.rows)})
    induced = rank(hstack([f, beta_next])) - rank(beta_next)
    return _ih_oracle(sp, q, j) - (_coker_ker(beta)[0] - induced)


def _hi_oracle(sp, p):
    """Reduced HI with the degree-0 local map toward the cone replacement
    written out: the inclusion beside a disjoint point for k <= 0, the
    augmentation to the cone point for k >= 1."""
    k = sp.l - p
    b0 = sp.boundary_h()[0]
    if k <= 0:
        local0 = MatrixQ(b0 + 1, b0, {(i + 1, i): Fraction(1) for i in range(b0)})
    else:
        local0 = MatrixQ(1, b0, {(0, i): Fraction(1) for i in range(b0)})
    maps = [vstack([sp.block(0), local0])]
    maps += [_beta_matrix(sp, j, j - k) for j in range(1, sp.n + 1)]
    # reduced degree 0: restrict to the augmentation kernel (e_i - e_0) and
    # count the cokernel inside the reduced target, one dimension less in
    # each of H_0(M) and the local group
    diff = MatrixQ(b0, b0 - 1, {**{(0, i - 1): Fraction(-1) for i in range(1, b0)},
                                **{(i, i - 1): Fraction(1) for i in range(1, b0)}})
    dims = [maps[0].rows - 2 - rank(maps[0] @ diff)]
    for j in range(1, sp.n + 1):
        dims.append(_coker_ker(maps[j])[0] + _coker_ker(maps[j - 1])[1])
    return tuple(dims)


def _oracle_draws():
    rng = random.Random(808)
    return ([random_algebraic_space(rng) for _ in range(8)]
            + [random_orientable_space(rng) for _ in range(8)]
            + [s2xt2_space(), pinched_torus_space(), cp2_point_space()])


def test_gamma_rank_matches_explicit_matrices():
    for sp in _oracle_draws():
        for q in range(-2, sp.c + 1):
            for j in range(0, sp.n + 1):
                assert gamma_rank(sp, q, j) == _gamma_oracle(sp, q, j), (sp, q, j)


def test_ig_dims_is_ih_sum_minus_gamma():
    for sp in _oracle_draws():
        for k in range(-1, sp.c + 2):
            q = k - 1
            for j in range(0, sp.n + 1):
                expected = (_ih_oracle(sp, q, j) + _ih_oracle(sp, q + 1, j)
                            - _gamma_oracle(sp, q, j))
                assert ig_dims(sp, k, j) == expected, (sp, k, j)


def test_hi_dims_matches_explicit_matrices():
    for sp in _oracle_draws():
        for p in range(-2, sp.l + 3):
            assert hi_dims(sp, p).as_tuple(0, sp.n) \
                == _hi_oracle(sp, p), (sp, p)


def test_equivalent_cutoffs_share_one_rank_cache_entry():
    sp = s2xt2_space()  # s = 2; B_1 has blocks at Sigma-degrees 0 and 1
    for a in (1, 2, 7):
        _rank_beta(sp, 1, a)
    assert len(sp._rank_cache) == 1
    for a in (-1, -6):
        _rank_beta(sp, 1, a)
    assert len(sp._rank_cache) == 2
    # IH far below perversity 0 and HI far above it keep every block
    sp = s2xt2_space()
    ih_ct_dims(sp, -5)
    entries = len(sp._rank_cache)
    ih_ct_dims(sp, -9)
    hi_dims(sp, 9)
    assert len(sp._rank_cache) == entries
