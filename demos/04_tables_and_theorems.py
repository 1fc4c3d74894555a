"""The running example S^2 x T^2: tables, mixed groups and the theorem.

The stratification puts two tori inside S^2 x T^2 with circle links.  Its
conifold transition S(T^2) x S^1 has torus links over two circles, and the
perversity sweep of its intersection homology fills a small table.  The
mixed groups assembled from adjacent columns equal the reduced homology of
the intersection spaces of the original space, degree by degree.
"""

from strathom.spaces import s2xt2_space
from strathom.stratified import (
    IGRequest,
    Perversity,
    conifold_transition,
    hi_dims,
    ig_dims,
    ih_table,
    verify_duality,
    verify_theorem_hom,
)

sp = s2xt2_space()
print("model:", sp)
print()
print(ih_table(sp, -1, 2).render())
print()

print("reduced HI at p(2)=0:", hi_dims(sp, Perversity(0, 2)).as_tuple(0, 4))
print("mixed groups IG^(3-j)_j:",
      tuple(ig_dims(sp, IGRequest(3 - j, j)) for j in range(5)))
print()

for p in range(-2, 4):
    verdicts = verify_theorem_hom(sp, Perversity(p, 2), range(0, 5))
    status = "ok" if all(v.ok for v in verdicts) else "FAIL"
    print(f"HI^({p}) vs IG sweep: "
          + " ".join(f"{v.lhs}={v.rhs}" for v in verdicts) + f"  {status}")
print()

print("duality p(2)=0 vs q(2)=0 (self-dual here):",
      "ok" if verify_duality(sp, Perversity(0, 2)).ok else "FAIL")

ct = conifold_transition(sp)
print("transition swaps link and stratum:", ct)
print("applying it twice is the identity:",
      conifold_transition(ct) == sp)
