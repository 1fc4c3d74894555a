"""Signatures: cup-product pairings and the equality chain.

The Novikov signature of a compact oriented pseudomanifold with boundary is
the signature of the cup form on the image of relative in absolute middle
cohomology, evaluated against the fundamental chain.  For product link
bundles every perverse signature collapses to it.
"""

from strathom.catalog import cp2_minus_facet, i_x_s1_x_t2
from strathom.signatures import novikov_signature, verify_theorem_sig, witt_check
from strathom.simplicial import cup_pairing
from strathom.spaces import cp2_point_space, s2xt2_space, torus_link_space

# the cylinder I x S^1 x T^2: everything restricts from the boundary, the
# image form vanishes identically
cyl = cup_pairing(i_x_s1_x_t2())
print("I x S^1 x T^2 pairing matrix is zero:", cyl.matrix.is_zero(),
      "-> signature", novikov_signature(cyl))

# the projective plane minus a ball: one generator, self-intersection +1
cp2 = cup_pairing(cp2_minus_facet())
print("CP^2 minus a ball pairing:", cp2.matrix.to_rows(),
      "-> signature", novikov_signature(cp2))

print()
rep = verify_theorem_sig(s2xt2_space(), cyl)
print("S^2 x T^2 report: all five signatures =", rep.sigma_Mbar,
      "| middle HI dim", rep.hi_middle_dim_X,
      "| middle IH dim", rep.ih_middle_dim_X,
      "| transition image dim", rep.ct_image_dim)

rep = verify_theorem_sig(cp2_point_space(), cp2)
print("CP^2-point report:  all five signatures =", rep.sigma_Mbar,
      "| middle HI dim", rep.hi_middle_dim_X,
      "| middle IH dim", rep.ih_middle_dim_X,
      "| transition image dim", rep.ct_image_dim)

print()
print("Witt check on the torus-link space:", witt_check(torus_link_space()))
print("(its middle-perversity signature is undefined, so the report refuses)")
