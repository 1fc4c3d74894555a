"""Chain complexes: Betti numbers two ways and the Kunneth theorem.

`ChainComplex.homology` checks d o d = 0 on the differentials it is given
and counts Betti numbers by the rank of each differential, uncleared;
`betti_numbers` reads the lows of the one cleared reduction straight off
the boundary matrices of a triangulation, never building a cleared
column, with no complex built.  The two routes share no clearing and
must agree.  Tensoring chain complexes (with Koszul signs)
convolves their Betti numbers, which is what the stratified dimension
calculus leans on for products; the staircase triangulation of the
product space gives the same numbers a third way.
"""

from strathom.catalog import circle, cp2_9, disk2, sphere_boundary, torus7
from strathom.chains import GradedVS, tensor_complex
from strathom.simplicial import (
    betti_numbers,
    chain_complex_of,
    product_complex,
)

print("Betti numbers: ChainComplex.homology (by rank) vs betti_numbers "
      "(cleared)")
for name, K in [("S^1", circle()), ("S^2", sphere_boundary(2)),
                ("T^2", torus7()), ("CP^2", cp2_9()),
                ("D^2", disk2().complex)]:
    via_complex = chain_complex_of(K).homology().as_tuple(0, K.dim)
    direct = tuple(betti_numbers(K))
    mark = "ok" if via_complex == direct else "MISMATCH"
    print(f"  {name:5s} {via_complex} {direct}  {mark}")

print()
print("Kunneth: H(A (x) B) against the convolution of Betti numbers and")
print("the staircase triangulation of |A| x |B|")
s1, t2 = circle(), torus7()
for name, a, b in [("S^1 x S^1", s1, s1), ("S^1 x T^2", s1, t2)]:
    tensor = tensor_complex(chain_complex_of(a), chain_complex_of(b))
    convolved = GradedVS(betti_numbers(a)).convolve(GradedVS(betti_numbers(b)))
    staircase = GradedVS(betti_numbers(product_complex(a, b)))
    mark = "ok" if tensor.homology() == convolved == staircase else "MISMATCH"
    print(f"  {name:9s} {tensor.homology()}  {mark}")
