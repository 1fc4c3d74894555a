import random
from fractions import Fraction

import pytest

from strathom.qlinalg import (
    DimensionMismatch,
    MatrixQ,
    NotSymmetric,
    Subspace,
    block_diag,
    hstack,
    image_basis,
    kernel_basis,
    rank,
    signature_sym,
    solve,
    sum_dim,
    vstack,
)

from oracles import rank_by_minors, rank_int_oracle


def M(rows):
    return MatrixQ.from_rows(rows)


def test_rank_trivial_cases():
    assert rank(MatrixQ.zeros(3, 3)) == 0
    assert rank(MatrixQ.identity(3)) == 3
    assert rank(M([[1, 2], [2, 4]])) == 1


def test_kernel_trivial_cases():
    assert kernel_basis(MatrixQ.identity(2)).dim == 0
    k = kernel_basis(M([[1, 1]]))
    assert k.dim == 1
    (v,) = k.basis
    # spans (1, -1)
    assert v[0] * Fraction(-1) == v[1] * Fraction(1) * -1 or v[0] == -v[1]
    k = kernel_basis(M([[1, 2], [2, 4]]))
    assert k.dim == 1
    (v,) = k.basis
    # contains (2, -1) up to scale
    assert v.get(0, 0) * (-1) == v.get(1, 0) * 2


def test_image_trivial_cases():
    assert image_basis(MatrixQ.zeros(2, 2)).dim == 0
    im = image_basis(MatrixQ.identity(2))
    assert im.dim == 2
    im = image_basis(M([[1], [2]]))
    assert im.dim == 1
    (v,) = im.basis
    assert v[1] == 2 * v[0]


def test_sum_dim():
    e1 = Subspace(2, [{0: 1}])
    e2 = Subspace(2, [{1: 1}])
    empty = Subspace(2, [])
    assert sum_dim(e1, e2) == 2
    assert sum_dim(e1, e1) == 1
    assert sum_dim(empty, e1) == 1
    with pytest.raises(DimensionMismatch):
        sum_dim(e1, Subspace(3, [{0: 1}]))


def test_subspace_rejects_dependent_basis():
    with pytest.raises(ValueError):
        Subspace(2, [{0: 1}, {0: 2}])


def test_rank_plus_nullity_and_transpose_rank():
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randrange(0, 5)
        c = rng.randrange(0, 5)
        rows = [[rng.randrange(-3, 4) for _ in range(c)] for _ in range(r)]
        m = M(rows) if r and c else MatrixQ.zeros(r, c)
        assert rank(m) + kernel_basis(m).dim == m.cols
        assert rank(m) == rank(m.transpose())
        if r and c:
            assert rank(m) == rank_by_minors(rows)


def test_rank_matches_modular_oracle_on_larger_matrices():
    rng = random.Random(21)
    for _ in range(10):
        r = rng.randrange(5, 12)
        c = rng.randrange(5, 12)
        rows = [[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(c)]
                for _ in range(r)]
        assert rank(M(rows)) == rank_int_oracle(rows)


def test_kernel_and_image_really_are_kernel_and_image():
    rng = random.Random(3)
    for _ in range(30):
        r = rng.randrange(1, 6)
        c = rng.randrange(1, 6)
        rows = [[rng.randrange(-2, 3) for _ in range(c)] for _ in range(r)]
        m = M(rows)
        for v in kernel_basis(m).basis:
            prod = m @ MatrixQ(c, 1, {(i, 0): x for i, x in v.items()})
            assert prod.is_zero()
        im = image_basis(m)
        assert im.dim == rank(m)
        # every original column lies in the span of the image basis
        for j in range(c):
            col = Subspace(r, [m.column(j)]) if m.column(j) else None
            if col is not None:
                assert sum_dim(im, col) == im.dim


def test_solve():
    m = M([[1, 2], [3, 4]])
    x = solve(m, {0: 5, 1: 11})
    assert x == {0: Fraction(1), 1: Fraction(2)}
    assert solve(M([[1, 1], [1, 1]]), {0: 1, 1: 2}) is None
    assert solve(M([[1, 1], [2, 2]]), {0: 3, 1: 6}) is not None


def test_signature_examples():
    assert signature_sym(M([[1]])) == (1, 0, 0)
    assert signature_sym(M([[0, 1], [1, 0]])) == (1, 1, 0)
    assert signature_sym(M([[2, 0, 0], [0, -3, 0], [0, 0, 5]])) == (2, 1, 0)
    assert signature_sym(MatrixQ.zeros(2, 2)) == (0, 0, 2)
    with pytest.raises(NotSymmetric):
        signature_sym(M([[0, 1], [2, 0]]))
    with pytest.raises(NotSymmetric):
        signature_sym(M([[1, 2, 3]]))


def _random_symmetric(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randrange(-3, 4)
            rows[i][j] = rows[j][i] = v
    return rows


def _random_invertible(rng, n):
    while True:
        rows = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
        m = M(rows)
        if rank(m) == n:
            return m


def test_signature_congruence_invariance():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(1, 6)
        a = M(_random_symmetric(rng, n))
        p = _random_invertible(rng, n)
        b = p.transpose() @ a @ p
        assert signature_sym(a) == signature_sym(b)[:2] + (signature_sym(b).null,)


def test_signature_of_m_plus_minus_m_is_balanced():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randrange(1, 5)
        a = M(_random_symmetric(rng, n))
        sig = signature_sym(block_diag([a, -a]))
        assert sig.pos == sig.neg


def test_matrix_ops_and_stacking():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert (a @ b) == M([[2, 1], [4, 3]])
    assert (a + b) == M([[1, 3], [4, 4]])
    assert (a - a).is_zero()
    assert hstack([a, b]) == M([[1, 2, 0, 1], [3, 4, 1, 0]])
    assert vstack([a, b]) == M([[1, 2], [3, 4], [0, 1], [1, 0]])
    assert block_diag([a, b]) == M(
        [[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert a.transpose() == M([[1, 3], [2, 4]])


def test_submatrix_selects_in_the_given_order():
    a = M([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert a.submatrix([2, 0], [1, 2]) == M([[8, 9], [2, 3]])
    assert a.submatrix([0, 1, 2], [2, 0]) == M([[3, 1], [6, 4], [9, 7]])
    assert a.submatrix([], [0, 1]) == MatrixQ.zeros(0, 2)
    assert a.submatrix(range(3), []) == MatrixQ.zeros(3, 0)
    # entries in unselected rows or columns are dropped, not shifted in
    sparse = MatrixQ(3, 3, {(0, 0): 1, (1, 2): 5, (2, 1): -1})
    assert sparse.submatrix([1, 2], [0, 1]) == M([[0, 0], [0, -1]])
    assert sparse.submatrix([0], [1, 2]).is_zero()


def test_entry_iteration_order_does_not_matter():
    entries = {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4, (2, 2): 1}
    m1 = MatrixQ(3, 3, entries)
    m2 = MatrixQ(3, 3, dict(reversed(list(entries.items()))))
    assert rank(m1) == rank(m2) == 2
    assert [sorted(v.items()) for v in kernel_basis(m1).basis] == \
        [sorted(v.items()) for v in kernel_basis(m2).basis]


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        MatrixQ(2, 2, {(2, 0): 1})
    with pytest.raises(DimensionMismatch):
        M([[1, 2]]) @ M([[1, 2]])
