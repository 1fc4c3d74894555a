"""The brute-force intersection homology oracle against the cone formula.

For the open cone on a closed manifold the intersection homology is the
link homology truncated below link_dim - p, in every degree including 0,
for every integer perversity value.  The oracle computes allowable
simplicial chains directly and must land on the same numbers, with and
without barycentric subdivision.
"""

from strathom.catalog import torus7
from strathom.chains import GradedVS
from strathom.simplicial import barycentric_subdivide, cone, ih_direct
from strathom.stratified import cone_formula

torus_betti = GradedVS([1, 2, 1])
ct = cone(torus7())
sub = barycentric_subdivide(ct)
print("cone over the 7-vertex torus; f-vectors:",
      ct.complex.f_vector(), "->", sub.complex.f_vector())
print()
print(" p | cone formula | oracle | oracle (subdivided)")
for p in range(-3, 5):
    formula = cone_formula(torus_betti, 2, p).as_tuple(0, 2)
    direct = ih_direct(ct, p).as_tuple(0, 2)
    direct_sub = ih_direct(sub, p).as_tuple(0, 2)
    mark = "ok" if formula == direct == direct_sub else "MISMATCH"
    print(f"{p:2d} | {formula} | {direct} | {direct_sub}  {mark}")

print()
print("note the p = 2 row: every degree vanishes, including 0 -- the")
print("degree-0 anomaly of the naive theory is corrected")
