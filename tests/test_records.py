from fractions import Fraction

import pytest

from strathom.chains import GradedVS, HomologyData
from strathom.modes import ModeReport, ModeSpec
from strathom.signatures import SignatureReport, WittVerdict
from strathom.stratified import (
    DegreeVerdict,
    DualityVerdict,
    SpaceReport,
)

# one instance of each record, and a field to try to overwrite
RECORDS = {
    "HomologyData": (lambda: HomologyData(
        complex=None, betti=GradedVS([1]), representatives={}), "betti"),
    "ModeSpec": (lambda: ModeSpec(torus_dim=2), "torus_dim"),
    "ModeReport": (lambda: ModeReport(
        surface_dims=(0, 2, 0), total_dims=(0, 2, 0), rejected_modes=()),
        "total_dims"),
    "WittVerdict": (lambda: WittVerdict(is_witt=True, reason="link-dim-odd"),
                    "is_witt"),
    "SignatureReport": (lambda: SignatureReport(
        sigma_Mbar=1, sigma_perverse_CT=1, sigma_IH_X=1, sigma_HI_X=1,
        sigma_Z=1, all_equal=True, witt=WittVerdict(True, "link-dim-odd"),
        middle_degree=2, hi_middle_dim_X=1, ih_middle_dim_X=1,
        hi_middle_dim_Z=1, ih_middle_dim_Z=1, ct_image_dim=1), "sigma_Mbar"),
    "DegreeVerdict": (lambda: DegreeVerdict(j=0, lhs=1, rhs=1), "lhs"),
    "DualityVerdict": (lambda: DualityVerdict(hi_pairs=[], ih_pairs=[]),
                       "hi_pairs"),
    "SpaceReport": (lambda: SpaceReport(
        label="x", q_values=(0,), degrees=(0,), dims={0: (1,)},
        annotations={0: ()}), "label"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable(name):
    make, field = RECORDS[name]
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, 0)


@pytest.mark.parametrize("make", [
    lambda: ModeSpec(-1),
    lambda: ModeSpec(1, mode_cutoff=0),
])
def test_records_validate_their_fields(make):
    with pytest.raises(ValueError):
        make()


def test_mode_spec_defaults():
    spec = ModeSpec(3)
    assert (spec.torus_dim, spec.weight, spec.mode_cutoff) == \
        (3, Fraction(0), 12)

