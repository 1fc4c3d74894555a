"""Exact rational linear algebra: the substrate everything else runs on.

Every homology dimension in this package is a difference of matrix ranks
computed over Q, and every signature is an exact congruence
diagonalization, so there is never a tolerance to tune.
"""

from fractions import Fraction

from strathom.qlinalg import MatrixQ, kernel_basis, rank, signature_sym

# ranks and kernels are exact: no epsilon can make this matrix rank 2
m = MatrixQ.from_rows([[1, 2], [2, 4]])
print("rank [[1,2],[2,4]] =", rank(m))
print("kernel:", [sorted(v.items()) for v in kernel_basis(m).basis])

# rationals stay rational: a matrix with awkward entries still has an
# exact kernel
m = MatrixQ.from_rows([[Fraction(1, 3), Fraction(1, 7)],
                       [Fraction(2, 3), Fraction(2, 7)]])
print("rank of the 1/3,1/7 matrix =", rank(m))

# signatures by congruence: the hyperbolic plane contributes (+1, -1)
hyp = MatrixQ.from_rows([[0, 1], [1, 0]])
print("signature of the hyperbolic plane:", signature_sym(hyp))

# a block with a radical: inertia counts the zero directions separately
q = MatrixQ.from_rows([
    [2, 0, 0, 0],
    [0, -3, 0, 0],
    [0, 0, 0, 0],
    [0, 0, 0, 5],
])
print("inertia of diag(2, -3, 0, 5):", signature_sym(q))
