import random
from fractions import Fraction
from math import lcm

import pytest

from strathom import io as sio
from strathom.catalog import cp2_9, i_x_s1_x_t2, torus7
from strathom.qlinalg import (
    DimensionMismatch,
    IncrementalSpan,
    MatrixQ,
    NotSymmetric,
    Subspace,
    column_lows,
    image_basis,
    kernel_basis,
    rank,
    signature_sym,
    sum_dim,
)
from strathom.simplicial import boundary_matrix

from oracles import (
    block_diag,
    hstack,
    rank_by_minors,
    rank_int_oracle,
    ref_column_lows,
    ref_echelon,
    ref_image_basis,
    ref_kernel_basis,
    ref_rows,
    ref_span_verdicts,
    vstack,
)

# entry pools for random matrices: with units; without any unit entry, so
# every first pivot takes the fraction-free branch; with rational entries
POOLS = {
    "units": [1, -1, 2],
    "no_unit": [2, -2, 3, -3, 6, -6],
    "rational": [1, -1, Fraction(3, 2), Fraction(-5, 7)],
}


def M(rows):
    return MatrixQ.from_rows(rows)


def eye(n):
    return MatrixQ(n, n, {(i, i): 1 for i in range(n)})


def _in_contract(v):
    """The value contract: an `int`, or a `Fraction` that is not integral."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def test_rank_trivial_cases():
    assert rank(MatrixQ(3, 3)) == 0
    assert rank(eye(3)) == 3
    assert rank(M([[1, 2], [2, 4]])) == 1


def test_kernel_trivial_cases():
    assert kernel_basis(eye(2)).dim == 0
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
    assert image_basis(MatrixQ(2, 2)).dim == 0
    im = image_basis(eye(2))
    assert im.dim == 2
    im = image_basis(M([[1], [2]]))
    assert im.dim == 1
    (v,) = im.basis
    assert v[1] == 2 * v[0]


def test_sum_dim():
    e1 = Subspace(2, ({0: 1},))
    e2 = Subspace(2, ({1: 1},))
    empty = Subspace(2, ())
    assert sum_dim(e1, e2) == 2
    assert sum_dim(e1, e1) == 1
    assert sum_dim(empty, e1) == 1
    with pytest.raises(DimensionMismatch):
        sum_dim(e1, Subspace(3, ({0: 1},)))


def test_rank_plus_nullity_and_transpose_rank():
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randrange(0, 5)
        c = rng.randrange(0, 5)
        rows = [[rng.randrange(-3, 4) for _ in range(c)] for _ in range(r)]
        m = M(rows) if r and c else MatrixQ(r, c)
        assert rank(m) + kernel_basis(m).dim == m.cols
        assert rank(m) == rank(m.transpose())
        if r and c:
            assert rank(m) == rank_by_minors(rows)
    for pool in ("no_unit", "rational"):
        for _ in range(20):
            rows = _random_rows(rng, pool, rng.randrange(1, 5),
                                rng.randrange(1, 5), 0.3)
            m = M(rows)
            assert rank(m) + kernel_basis(m).dim == m.cols
            assert rank(m) == rank(m.transpose()) == rank_by_minors(rows)


def test_rank_matches_modular_oracle_on_larger_matrices():
    rng = random.Random(21)
    for _ in range(10):
        r = rng.randrange(5, 12)
        c = rng.randrange(5, 12)
        rows = [[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(c)]
                for _ in range(r)]
        assert rank(M(rows)) == rank_int_oracle(rows)
        _assert_pivots_match_oracle(M(rows))
    for pool in POOLS:
        for _ in range(8):
            rows = _random_rows(rng, pool, rng.randrange(5, 31),
                                rng.randrange(5, 31), rng.choice([0.5, 0.8]))
            assert rank(M(rows)) == rank_int_oracle(_integer_rows(rows))
            _assert_pivots_match_oracle(M(rows))


def _random_rows(rng, pool, r, c, zero_share):
    """An r x c matrix over `POOLS[pool]`, zero with probability
    `zero_share`; some rows are then replaced by combinations of others
    (doubled for the unit-free pool, which a sum could break) so that ranks
    fall short of min(r, c)."""
    rows = [[0 if rng.random() < zero_share else rng.choice(POOLS[pool])
             for _ in range(c)] for _ in range(r)]
    for k in range(r):
        if k >= 2 and rng.random() < 0.3:
            i, j = rng.sample(range(k), 2)
            rows[k] = ([2 * x for x in rows[i]] if pool == "no_unit"
                       else [x + y for x, y in zip(rows[i], rows[j])])
    return rows


def _integer_rows(rows):
    """Each row times the lcm of its denominators: the same rank on every
    set of columns."""
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        out.append([int(x * den) for x in row])
    return out


def _assert_pivots_match_oracle(m):
    """Against the modular rank oracle: `image_basis` holds exactly the
    columns that raise the rank of the columns before them."""
    rows = _integer_rows(m.to_rows())
    prefix = [rank_int_oracle([row[:j] for row in rows])
              for j in range(m.cols + 1)]
    independent = [m.column(j) for j in range(m.cols)
                   if prefix[j + 1] > prefix[j]]
    assert list(image_basis(m).basis) == independent


def _assert_engine_matches_reference(m, rng):
    """The integer column reduction and the Fraction row reference agree on
    the rank, the kernel and image bases and the `IncrementalSpan` verdicts,
    and the span stores integer vectors only."""
    ref = ref_echelon(ref_rows(m))
    assert rank(m) == len(ref)
    assert list(kernel_basis(m).basis) == ref_kernel_basis(m, ref)
    assert list(image_basis(m).basis) == ref_image_basis(m, ref)

    # up to 40 columns in order, then combinations of them: the verdicts
    # follow the reference, and the accepted count is their rank
    cols = [dict() for _ in range(m.cols)]
    for (i, j), v in m.items():
        cols[j][i] = v
    if len(cols) > 40:
        cols = [cols[j] for j in sorted(rng.sample(range(len(cols)), 40))]
    vecs = cols + [{i: 2 * a.get(i, 0) - 3 * b.get(i, 0)
                    for i in a.keys() | b.keys()}
                   for a, b in zip(cols, cols[1:])]
    span = IncrementalSpan()
    verdicts = [span.add(v) for v in vecs]
    assert verdicts == ref_span_verdicts(m.rows, vecs)
    assert all(type(v) is int for row in span._rows.values()
               for v in row.values())
    assert len(span.pivots) == sum(verdicts) == rank(
        MatrixQ(m.rows, len(cols), {(i, j): v for j, col in enumerate(cols)
                                    for i, v in col.items()}))


def test_span_pivots_at_the_largest_coordinate():
    """`IncrementalSpan` stores each accepted vector under the largest
    coordinate of its reduced support: the low of a column reduction."""
    span = IncrementalSpan()
    assert span.add({0: 1, 3: 2})
    assert list(span.pivots) == [3]
    assert not span.add({0: 2, 3: 4})
    assert span.add({3: 1})
    assert list(span.pivots) == [3, 0]
    assert span._rows[0] == {0: -1}


def test_engine_matches_fraction_reference_on_random_matrices():
    rng = random.Random(5)
    for pool in POOLS:
        for _ in range(15):
            r = rng.randrange(1, 31)
            c = rng.randrange(1, 31)
            rows = _random_rows(rng, pool, r, c, rng.choice([0.5, 0.8]))
            m = M(rows)
            _assert_engine_matches_reference(m, rng)
            assert rank(m) == rank_int_oracle(_integer_rows(rows))
    _assert_engine_matches_reference(MatrixQ(3, 4), rng)


@pytest.mark.parametrize("name", ["torus7", "cp2_9", "i_x_s1_x_t2"])
def test_engine_matches_fraction_reference_on_boundary_matrices(name):
    complex_ = {"torus7": torus7, "cp2_9": cp2_9,
                "i_x_s1_x_t2": lambda: i_x_s1_x_t2().complex}[name]()
    rng = random.Random(17)
    for d in range(1, complex_.dim + 1):
        bd = boundary_matrix(complex_, d)
        for m in (bd, bd.transpose()):
            _assert_engine_matches_reference(m, rng)
        if name != "i_x_s1_x_t2":  # dense modular ranks are too slow there
            dense = [[int(x) for x in row] for row in bd.to_rows()]
            assert rank(bd) == rank_int_oracle(dense)


def test_column_lows_match_the_persistence_reduction():
    rng = random.Random(29)
    mats = [M(_random_rows(rng, pool, rng.randrange(1, 25),
                           rng.randrange(1, 25), rng.choice([0.5, 0.8])))
            for pool in POOLS for _ in range(12)]
    mats += [boundary_matrix(cx, d) for cx in (torus7(), cp2_9())
             for d in range(1, cx.dim + 1)]
    mats.append(MatrixQ(3, 4))
    for m in mats:
        lows = column_lows(m)
        assert lows == ref_column_lows(m)
        assert len(lows) == rank(m) == len(set(lows.values()))
        # dropping columns in the span of the earlier ones moves no low
        rejected = [j for j in range(m.cols) if j not in lows]
        drop = set(rng.sample(rejected, rng.randrange(len(rejected) + 1)))
        assert _lows_without(m, drop) == lows
        # dropping an accepted column removes it, keeps the lows before it,
        # and may move later lows
        if lows:
            j = rng.choice(sorted(lows))
            left = _lows_without(m, {j})
            assert j not in left
            assert {c: r for c, r in left.items() if c < j} == \
                {c: r for c, r in lows.items() if c < j}


def _lows_without(m, drop):
    """`column_lows` of m with the columns in `drop` left out, indexed by
    the columns of m."""
    keep = [j for j in range(m.cols) if j not in drop]
    return {keep[k]: r for k, r in
            column_lows(m.submatrix(range(m.rows), keep)).items()}


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
            col = Subspace(r, (m.column(j),)) if m.column(j) else None
            if col is not None:
                assert sum_dim(im, col) == im.dim


def test_signature_examples():
    assert signature_sym(M([[1]])) == (1, 0, 0)
    assert signature_sym(M([[0, 1], [1, 0]])) == (1, 1, 0)
    assert signature_sym(M([[2, 0, 0], [0, -3, 0], [0, 0, 5]])) == (2, 1, 0)
    assert signature_sym(MatrixQ(2, 2)) == (0, 0, 2)
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


def test_signature_follows_sylvester_law_of_inertia():
    """B^T D B, with B a k x n matrix of full row rank k and D diagonal with
    nonzero entries, has inertia (#D > 0, #D < 0, n - k)."""
    rng = random.Random(19)
    diag_pool = [-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)]
    checked = 0
    for _ in range(400):
        n = rng.randrange(1, 7)
        k = rng.randrange(0, n + 1)
        b = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(k)]
        if rank_int_oracle(b) != k:
            continue
        d = [rng.choice(diag_pool) for _ in range(k)]
        a = MatrixQ(n, n, {(i, j): sum(b[t][i] * d[t] * b[t][j]
                                       for t in range(k))
                           for i in range(n) for j in range(n)})
        pos = sum(x > 0 for x in d)
        assert signature_sym(a) == (pos, k - pos, n - k)
        checked += 1
    assert checked >= 200


def test_signature_of_m_plus_minus_m_is_balanced():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randrange(1, 5)
        a = M(_random_symmetric(rng, n))
        sig = signature_sym(block_diag([a, -a]))
        assert sig.pos == sig.neg


def test_values_are_int_or_non_integral_fraction():
    """No stored or returned value is a `Fraction` with denominator 1."""
    assert type(MatrixQ(1, 1, {(0, 0): Fraction(4, 2)}).entry(0, 0)) is int
    assert type(M([[Fraction(-6, 3)]]).entry(0, 0)) is int
    m = sio.matrix_from_rows([["4/2", "3/2"]], "m")
    assert (type(m.entry(0, 0)), m.entry(0, 1)) == (int, Fraction(3, 2))

    def values(obj):
        if isinstance(obj, MatrixQ):
            return [v for _, v in obj.items()] + sum(obj.to_rows(), [])
        return [v for vec in obj.basis for v in vec.values()]

    rng = random.Random(23)
    pool = [0, 0, 1, -1, 2, Fraction(4, 2), Fraction(-6, 3), Fraction(3, 2),
            Fraction(2, 3), "4/2", "3/2"]
    io_pool = [0, 1, -1, 2, "4/2", "-6/3", "3/2", "2/3"]
    for _ in range(40):
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [[rng.choice(pool) for _ in range(c)] for _ in range(r)]
        a = M(rows)
        assert a == MatrixQ(r, c, {(i, j): v for i, row in enumerate(rows)
                                   for j, v in enumerate(row)})
        for m in (a, sio.matrix_from_rows(
                [[rng.choice(io_pool) for _ in range(c)] for _ in range(r)],
                "m")):
            t = m.transpose()
            keep_r = sorted(rng.sample(range(r), rng.randrange(r + 1)))
            keep_c = sorted(rng.sample(range(c), rng.randrange(c + 1)))
            outs = [m, t, m.submatrix(keep_r, keep_c), m @ t, t @ m, -m]
            # a derived matrix is what the checking door builds from its
            # entries: no stored zero, no value outside the contract
            for x in outs[1:]:
                assert x == MatrixQ(x.rows, x.cols, dict(x.items())), x
            for x in (m, t):
                outs += [kernel_basis(x), image_basis(x)]
            for out in outs:
                assert all(map(_in_contract, values(out))), out


def test_matrix_ops_and_stacking():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert (a @ b) == M([[2, 1], [4, 3]])
    assert -a == M([[-1, -2], [-3, -4]])
    assert hstack([a, b]) == M([[1, 2, 0, 1], [3, 4, 1, 0]])
    assert vstack([a, b]) == M([[1, 2], [3, 4], [0, 1], [1, 0]])
    assert block_diag([a, b]) == M(
        [[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert a.transpose() == M([[1, 3], [2, 4]])
    # a column is handed out as a copy
    col = a.column(1)
    col[0] = 7
    assert a.entry(0, 1) == 2 and a.column(1) == {0: 2, 1: 4}
    # explicit zeros are not stored, so no column of them is either
    zeros = MatrixQ(2, 3, {(0, 0): 0, (1, 2): Fraction(0), (0, 2): "0/5"})
    assert zeros == MatrixQ(2, 3) and zeros.is_zero() and zeros.nnz == 0


def test_submatrix_selects_in_the_given_order():
    a = M([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert a.submatrix([2, 0], [1, 2]) == M([[8, 9], [2, 3]])
    assert a.submatrix([0, 1, 2], [2, 0]) == M([[3, 1], [6, 4], [9, 7]])
    assert a.submatrix([], [0, 1]) == MatrixQ(0, 2)
    assert a.submatrix(range(3), []) == MatrixQ(3, 0)
    # entries in unselected rows or columns are dropped, not shifted in
    sparse = MatrixQ(3, 3, {(0, 0): 1, (1, 2): 5, (2, 1): -1})
    assert sparse.submatrix([1, 2], [0, 1]) == M([[0, 0], [0, -1]])
    assert sparse.submatrix([0], [1, 2]).is_zero()


def test_entry_iteration_order_does_not_matter():
    entries = {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4, (2, 2): 1}
    m1 = MatrixQ(3, 3, entries)
    m2 = MatrixQ(3, 3, dict(reversed(list(entries.items()))))
    assert rank(m1) == rank(m2) == 2
    for basis in (kernel_basis, image_basis):
        assert [sorted(v.items()) for v in basis(m1).basis] == \
            [sorted(v.items()) for v in basis(m2).basis]


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        MatrixQ(2, 2, {(2, 0): 1})
    with pytest.raises(DimensionMismatch):
        M([[1, 2]]) @ M([[1, 2]])
