"""Witt checks, Novikov signatures and the signature-equality report.

For a product link bundle every spectral-sequence correction to a perverse
signature vanishes, so all five signatures in the chain

    sigma_HI(X) = sigma_IH(X) = sigma_IH,m(CT(X)) = sigma_IH(Z)
                = sigma_HI(Z) = sigma(Mbar)

reduce to the Novikov signature of the compactified regular part.  The
report therefore computes sigma(Mbar) once, from a given pairing matrix or
from the cup pairing of a given triangulation; the cup pairing is built only
where sigma(Mbar) is read (a Witt space with n divisible by 4).  It exposes
every independently computable dimension (middle-degree HI and IH
of X and Z, and the image dimension of the canonical map between the two
middle perversities of the transition) so the surrounding claims stay
falsifiable even though the signature equalities hold by construction.
"""

from __future__ import annotations

from typing import NamedTuple

from .qlinalg import signature_sym
from .simplicial import (
    OrientedPseudomanifoldWithBoundary,
    PairingData,
    cup_pairing,
)
from .stratified import (
    TwoStrataSpace,
    compactify_to_isolated,
    gamma_rank,
    hi_dims,
    ih_ct_dims,
    ih_space_dims,
    middle_perversities,
)


class TheoremNotApplicable(ValueError):
    """The hypotheses of the signature theorem fail for this input."""


WITT_LINK_ODD = "link-dim-odd"
WITT_MIDDLE_ZERO = "middle-link-cohomology-zero"
WITT_FAILS = "fails"


class WittVerdict(NamedTuple):
    is_witt: bool
    reason: str


def witt_check(space: TwoStrataSpace) -> WittVerdict:
    """Witt condition: link dimension odd, or vanishing middle link
    cohomology.  Only meaningful for even-dimensional spaces."""
    if space.n % 2:
        raise TheoremNotApplicable(
            f"Witt check needs an even-dimensional space, got n = {space.n}")
    if space.l % 2 == 1:
        return WittVerdict(True, WITT_LINK_ODD)
    if space.link_h[space.l // 2] == 0:
        return WittVerdict(True, WITT_MIDDLE_ZERO)
    return WittVerdict(False, WITT_FAILS)


def novikov_signature(p: PairingData) -> int:
    """Signature of the middle-degree pairing; the radical is discarded.

    The pairing matrix runs over relative cohomology classes with the
    second slot pushed to absolute cohomology, so its nonzero part is the
    intersection form on the image of relative in absolute cohomology.
    """
    if p.matrix.rows == 0:
        return 0
    if p.degree % 2:
        raise TheoremNotApplicable(
            f"no symmetric signature in odd middle degree {p.degree}")
    sig = signature_sym(p.matrix)
    return sig.pos - sig.neg


def ct_middle_image_dim(space: TwoStrataSpace) -> int:
    """dim Image(IH_m -> IH_n) of the transition in middle degree.

    m and n are the lower and upper middle perversities at the codimension
    of the transition's stratum; for odd codimension they differ by one and
    the dimension is a canonical-map rank, for even codimension they agree
    and the image is everything.
    """
    lo, hi = middle_perversities(space.c)
    j = space.n // 2
    if lo == hi:
        return ih_ct_dims(space, lo)[j]
    return gamma_rank(space, lo, j)


class SignatureReport(NamedTuple):
    sigma_Mbar: int
    sigma_perverse_CT: int
    sigma_IH_X: int
    sigma_HI_X: int
    sigma_Z: int
    all_equal: bool
    witt: WittVerdict
    middle_degree: int
    hi_middle_dim_X: int
    ih_middle_dim_X: int
    hi_middle_dim_Z: int
    ih_middle_dim_Z: int
    ct_image_dim: int

    def to_dict(self) -> dict:
        return self._asdict() | {"witt": self.witt._asdict()}


def verify_theorem_sig(
        space: TwoStrataSpace,
        pairing: PairingData | OrientedPseudomanifoldWithBoundary,
) -> SignatureReport:
    """The signature-equality report for a Witt space.

    Requires the Witt condition; for n not divisible by 4 every middle
    pairing is skew and all signatures vanish.  `pairing` is a pairing
    matrix or an oriented triangulation of even dimension; the cup pairing
    of a triangulation is computed only when sigma is read, i.e. for a
    Witt space with n divisible by 4, after its degree is checked against
    n / 2.  The five signature entries are equal by the product-bundle
    reduction; the middle-degree dimensions are computed by the
    independent Mayer-Vietoris machinery.
    """
    witt = witt_check(space)
    if not witt.is_witt:
        raise TheoremNotApplicable(
            "the space fails the Witt condition; middle-perversity "
            "signatures are not defined")
    n = space.n
    mid = n // 2
    sigma = 0
    if n % 4 == 0:
        triangulated = isinstance(pairing, OrientedPseudomanifoldWithBoundary)
        degree = pairing.complex.dim // 2 if triangulated else pairing.degree
        if degree != mid:
            raise TheoremNotApplicable(
                f"pairing is in degree {degree}, middle degree is {mid}")
        sigma = novikov_signature(
            cup_pairing(pairing, mid) if triangulated else pairing)

    m_x = middle_perversities(space.codim_sigma)[0]
    z = compactify_to_isolated(space)
    m_z = middle_perversities(z.codim_sigma)[0]
    return SignatureReport(
        sigma_Mbar=sigma,
        sigma_perverse_CT=sigma,
        sigma_IH_X=sigma,
        sigma_HI_X=sigma,
        sigma_Z=sigma,
        all_equal=True,
        witt=witt,
        middle_degree=mid,
        hi_middle_dim_X=hi_dims(space, m_x)[mid],
        ih_middle_dim_X=ih_space_dims(space, m_x)[mid],
        hi_middle_dim_Z=hi_dims(z, m_z)[mid],
        ih_middle_dim_Z=ih_space_dims(z, m_z)[mid],
        ct_image_dim=ct_middle_image_dim(space),
    )
