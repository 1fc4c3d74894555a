from fractions import Fraction

import pytest

from strathom.modes import (
    ModeSpec,
    UnsupportedWeight,
    surface_ext_dims,
    torus_betti,
    total_ext_dims,
)


def test_surface_dims_are_0_2_0():
    rep = surface_ext_dims(ModeSpec(torus_dim=0, mode_cutoff=1))
    assert rep.surface_dims == (0, 2, 0)


def test_constant_rejected_with_divergence_reason():
    rep = surface_ext_dims(ModeSpec(torus_dim=0, mode_cutoff=1))
    reasons = [r for n, r in rep.rejected_modes if n == 0]
    assert any("degree-0" in r and "divergent" in r for r in reasons)
    assert any("degree-2" in r for r in reasons)


def test_nonzero_modes_rejected_as_exponential():
    rep = surface_ext_dims(ModeSpec(torus_dim=0, mode_cutoff=50))
    plus = [r for n, r in rep.rejected_modes if n > 0 and "+infinity" in r]
    minus = [r for n, r in rep.rejected_modes if n > 0 and "-infinity" in r]
    assert len(plus) == len(minus) == 50
    assert all("exp" in r for r in plus + minus)


def test_output_independent_of_cutoff():
    dims = {surface_ext_dims(ModeSpec(torus_dim=0, mode_cutoff=n)).surface_dims
            for n in (1, 2, 7, 31)}
    assert dims == {(0, 2, 0)}


def test_total_dims():
    assert total_ext_dims(ModeSpec(torus_dim=2)).total_dims == (0, 2, 4, 2, 0)
    assert total_ext_dims(ModeSpec(torus_dim=0)).total_dims == (0, 2, 0)
    assert total_ext_dims(ModeSpec(torus_dim=1)).total_dims == (0, 2, 2, 0)


def test_total_dims_palindromic():
    for d in range(0, 5):
        dims = total_ext_dims(ModeSpec(torus_dim=d)).total_dims
        assert dims == tuple(reversed(dims))


def test_total_is_convolution_with_torus_betti():
    for d in range(0, 4):
        rep = total_ext_dims(ModeSpec(torus_dim=d))
        betti = torus_betti(d)
        expected = [sum(rep.surface_dims[i] * betti[j - i]
                        for i in range(3)) for j in range(d + 3)]
        assert list(rep.total_dims) == expected


def test_nonzero_weight_rejected():
    with pytest.raises(UnsupportedWeight):
        surface_ext_dims(ModeSpec(torus_dim=0, weight=Fraction(1, 2)))


def test_spec_validation():
    with pytest.raises(ValueError):
        ModeSpec(torus_dim=-1)
    with pytest.raises(ValueError):
        ModeSpec(torus_dim=0, mode_cutoff=0)


def test_matches_intersection_space_homology():
    # the desk-scale instance of the Hodge theorem: harmonic counts on
    # R x S^1 x T^2 equal the reduced intersection-space homology of
    # S^2 x T^2 at the weight-0 perversity
    from strathom.spaces import s2xt2_space
    from strathom.stratified import hi_dims, hodge_weights
    assert hodge_weights(0, 1, 4, 0)[0] == 0
    hi = hi_dims(s2xt2_space(), 0)
    assert total_ext_dims(ModeSpec(torus_dim=2)).total_dims == hi.as_tuple(0, 4)
