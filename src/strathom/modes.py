"""Extended harmonic forms on the flat cylinder-times-torus model, by
Fourier modes.

The surface factor is W = R x S^1 with the metric dr^2 + (1 + r^2) dtheta^2,
conformally an infinite flat cylinder in the coordinate t = arcsinh(r).  A
closed and coclosed form decomposes into Fourier modes in theta.  Nonzero
modes force radial profiles solving f'' = n^2 f, which are exponentials in
t and blow up at one end, so they are never almost-square-integrable.  The
zero mode leaves the constants, dt, dtheta and the volume form; whether
each survives is a pure exponent comparison in the weighted integrability
test.  Everything here is that argument made executable - there is no PDE
solver and no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .chains import GradedVS


class UnsupportedWeight(ValueError):
    """Only the weight singled out by the flat product model is implemented."""


class _ModeSpecFields(NamedTuple):
    torus_dim: int
    weight: Fraction = Fraction(0)
    mode_cutoff: int = 12


class ModeSpec(_ModeSpecFields):
    """Torus dimension, weight (must be 0) and the Fourier cutoff to report."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.torus_dim < 0:
            raise ValueError("torus dimension must be >= 0")
        if self.mode_cutoff < 1:
            raise ValueError("mode cutoff must be >= 1")
        return self


class ModeReport(NamedTuple):
    surface_dims: tuple[int, int, int]
    total_dims: tuple[int, ...]
    rejected_modes: tuple[tuple[int, str], ...]

    def to_dict(self) -> dict:
        """The fields by name; JSON writes the tuples as lists."""
        return self._asdict()


# squared pointwise norms of the zero-mode generators, as powers of
# (1 + r^2); the volume element contributes the exponent +1/2
_ZERO_MODE_CANDIDATES = (
    (0, "1", Fraction(0)),            # constants
    (1, "dtheta", Fraction(-1)),      # |dtheta|^2 = (1+r^2)^{-1}
    (1, "dt", Fraction(-1)),          # dt = dr / sqrt(1+r^2)
    (2, "dvol", Fraction(0)),         # unit-norm top form
)
_VOLUME_EXPONENT = Fraction(1, 2)


def _almost_l2(norm_exponent: Fraction) -> bool:
    """Whether int (1+r^2)^(e - eps) dr converges for every eps > 0.

    With e the total exponent of the squared norm against the volume
    element, convergence for all positive eps is exactly e <= -1/2.
    """
    return norm_exponent + _VOLUME_EXPONENT <= Fraction(-1, 2)


def surface_ext_dims(spec: ModeSpec) -> ModeReport:
    """Extended harmonic forms on R x S^1, degree by degree.

    Enumerates Fourier modes |n| <= mode_cutoff.  Every nonzero mode is
    rejected because its radial profile is exponential in the cylinder
    coordinate; among the zero modes only dtheta and dt pass the
    integrability test, so the answer is (0, 2, 0) independently of the
    cutoff.
    """
    if spec.weight != 0:
        raise UnsupportedWeight(
            f"only weight 0 is modeled; got {spec.weight}")
    rejected: list[tuple[int, str]] = []
    dims = [0, 0, 0]
    for degree, name, exponent in _ZERO_MODE_CANDIDATES:
        if _almost_l2(exponent):
            dims[degree] += 1
        else:
            rejected.append(
                (0, f"degree-{degree} {name}: divergent integral "
                    f"(1+r^2)^({exponent + _VOLUME_EXPONENT} - eps)"))
    for n in range(1, spec.mode_cutoff + 1):
        rejected.append((n, "radial profile exp(+%dt) blows up at +infinity" % n))
        rejected.append((n, "radial profile exp(-%dt) blows up at -infinity" % n))
    return ModeReport(surface_dims=tuple(dims),
                      total_dims=tuple(dims),
                      rejected_modes=tuple(rejected))


def torus_betti(d: int) -> GradedVS:
    """Betti numbers of the d-torus: binomial coefficients."""
    from math import comb
    return GradedVS([comb(d, i) for i in range(d + 1)])


def total_ext_dims(spec: ModeSpec) -> ModeReport:
    """Extended harmonic forms on R x S^1 x T^d: the surface answer
    convolved with the torus Betti numbers (harmonic forms on a flat torus
    are the invariant ones)."""
    surface = surface_ext_dims(spec)
    total = GradedVS(list(surface.surface_dims)).convolve(
        torus_betti(spec.torus_dim))
    return ModeReport(surface_dims=surface.surface_dims,
                      total_dims=total.as_tuple(0, 2 + spec.torus_dim),
                      rejected_modes=surface.rejected_modes)
