"""Chain complexes: homology, mapping cones and the Kunneth theorem.

The cone of a chain map computes the reduced homology of the topological
mapping cone; tensoring complexes convolves their Betti numbers.  Both
facts are what the stratified dimension calculus leans on, so they get
their own demonstration.
"""

from strathom.catalog import circle, torus7
from strathom.chains import ChainMap, GradedVS, mapping_cone, tensor_complex
from strathom.qlinalg import MatrixQ
from strathom.simplicial import chain_complex_of

s1 = chain_complex_of(circle())
t2 = chain_complex_of(torus7())
print("H(S^1) =", s1.homology())
print("H(T^2) =", t2.homology())

# Kunneth: tensoring chain complexes convolves Betti numbers
print("H(S^1 x S^1) via tensor =", tensor_complex(s1, s1).homology())
print("H(S^1 x T^2) via tensor =", tensor_complex(s1, t2).homology())

# the Moore approximation of a circle below degree 1 is a point; the cone
# of its inclusion kills degree 0 and keeps the circle class
point = chain_complex_of(circle()).__class__(GradedVS([1]))
inclusion = ChainMap(point, s1, {0: MatrixQ.from_rows([[1], [0], [0]])})
print("reduced H(cone(point -> S^1)) =", mapping_cone(inclusion).homology())

# the cone of the identity is acyclic: gluing a space to itself changes
# nothing
ident = ChainMap(s1, s1, {0: MatrixQ.identity(3), 1: MatrixQ.identity(3)})
print("H(cone(id)) =", mapping_cone(ident).homology(), "(acyclic)")
