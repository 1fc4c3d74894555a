"""Harmonic modes on R x S^1 x T^2 versus intersection-space homology.

The regular part of S^2 x T^2 carries a flat fibred scattering metric.  Its
extended L^2 harmonic forms at weight 0 can be counted by bare Fourier
analysis: nonzero circle modes force exponential radial profiles, and among
the zero modes only dtheta and dt are almost square integrable.  The counts
must equal the reduced homology of the weight-0 intersection space - two
computations that share no code.
"""

from strathom.modes import ModeSpec, total_ext_dims
from strathom.spaces import s2xt2_space
from strathom.stratified import hi_dims, hodge_weights

spec = ModeSpec(torus_dim=2, mode_cutoff=8)
rep = total_ext_dims(spec)
print("surface factor R x S^1:", rep.surface_dims)
print("with the torus factor: ", rep.total_dims)
print()
print("sample rejections:")
for n, reason in rep.rejected_modes[:4]:
    print(f"  mode {n}: {reason}")
print(f"  ... {len(rep.rejected_modes)} rejections total")
print()

# weight 0 on the scattering side corresponds to perversity 0 at the
# codimension-2 stratum: (l - 1)/2 - p = 0
c_fs, c_fc = hodge_weights(0, l=1, n=4, j=2)
print("weights at p(2)=0, middle degree: scattering", c_fs, "| cusp", c_fc)

hi = hi_dims(s2xt2_space(), 0)
print()
print("harmonic counts:", rep.total_dims)
print("reduced HI:     ", hi.as_tuple(0, 4))
print("equal:", tuple(rep.total_dims) == hi.as_tuple(0, 4))
