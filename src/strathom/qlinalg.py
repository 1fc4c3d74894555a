"""Exact rational linear algebra on sparse matrices.

Everything downstream (homology dimensions, Mayer-Vietoris bookkeeping,
signatures) reduces to ranks, kernels, images and congruence
diagonalization computed here.  A value is an `int`, or a reduced
`fractions.Fraction` whose denominator is not 1.  A caller's value is
checked and coerced (`as_rational`) at one door, `MatrixQ(...)`.  A matrix
derived from a valid one (transpose, submatrix, negation) inherits the
contract without a second check, and every value handed back follows it,
so the ±1 boundary matrices of a triangulation hold plain `int`s.  The
one sparse product, `@`, hands its sums to that door, which drops a zero
sum: `simplicial` checks the coherence of an orientation and pairs
cocycles by it.  A `MatrixQ` stores its nonempty columns, {j: {i: v}}, and
every reduction reads them as stored.  One reduction loop,
`IncrementalSpan.add`, serves every rank and checks no value again, as it
is fed only the columns of a `MatrixQ`.  It reduces exact Python `int`
vectors (a vector holding a `Fraction` is scaled by the lcm of its
denominators), fraction-free in the sense of Bareiss, always at the
largest coordinate of the support.  One driver feeds it the columns of a
matrix from left to right: the column reduction of persistence, whose lows
are the pivots and which `column_lows` reads.  It takes no column
selection: the callers that clear, `simplicial._filtered_lows` and
`simplicial.cup_pairing`, never build a cleared column.  It accepts the
leftmost independent columns; `rank` counts them (of the transpose when
that has fewer columns) and `image_basis` returns them.
`kernel_basis` feeds each column with its own unit vector below its
rows, so a column that reduces to zero leaves the combination that kills
it, and divides in `Fraction` only by a non-unit pivot.  No floats, no
tolerances and no modular shortcut anywhere: a rank is a rank.

`fractions` is imported where a `Fraction` can first arise, not at
module level: in `as_rational` past its `int` return and in `_quotient`
for a non-unit pivot.  Every other test of a value reads `type(v) is int`
first, so a command whose values stay integral never loads `fractions`
(or the `decimal` it imports).

Values are immutable after construction and safe to share across threads;
all operations are pure functions.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

# Fraction is always reduced with positive denominator and canonical zero;
# the package adds one rule: an integral value is stored as an `int`.


class DimensionMismatch(ValueError):
    """Shapes or ambient dimensions do not line up."""


class NotSymmetric(ValueError):
    """A symmetric-only operation was fed a non-symmetric matrix."""


def as_rational(x) -> int | Fraction:
    """Coerce ints, strings like '3/2' and Fractions to the value contract:
    an `int` for an integral value, a `Fraction` otherwise.  A `bool` is
    refused."""
    if type(x) is int:
        return x
    from fractions import Fraction
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"cannot interpret {x!r} as a rational number")


class MatrixQ:
    """A rows x cols matrix over Q stored by columns, {j: {i: v}}; zeros and
    empty columns are never stored.

    The constructor takes {(i, j): v} entries, checks the shape and every
    entry's position, and coerces every value to the contract; `_of` adopts
    columns that already meet it."""

    __slots__ = ("rows", "cols", "_c")

    def __init__(self, rows: int, cols: int, entries: Mapping | None = None):
        if rows < 0 or cols < 0:
            raise DimensionMismatch(f"negative shape ({rows}, {cols})")
        self.rows = rows
        self.cols = cols
        c = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise DimensionMismatch(
                        f"entry ({i},{j}) outside {rows}x{cols} matrix")
                v = as_rational(v)
                if v:
                    c.setdefault(j, {})[i] = v
        self._c = c

    @classmethod
    def _of(cls, rows: int, cols: int, columns: dict) -> "MatrixQ":
        """Adopt `columns` unchecked: {j: {i: v}} of nonzero contract values,
        in range, with no empty column."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._c = columns
        return m

    @classmethod
    def from_rows(cls, data: Iterable[Iterable]) -> "MatrixQ":
        data = [list(r) for r in data]
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise DimensionMismatch("ragged rows")
        return cls(len(data), cols, {(i, j): v for i, row in enumerate(data)
                                     for j, v in enumerate(row)})

    def entry(self, i: int, j: int) -> int | Fraction:
        return self._c.get(j, {}).get(i, 0)

    def items(self):
        """The stored entries as ((i, j), v), column by column."""
        return (((i, j), v) for j, col in self._c.items()
                for i, v in col.items())

    @property
    def nnz(self) -> int:
        return sum(map(len, self._c.values()))

    def is_zero(self) -> bool:
        return not self._c

    def transpose(self) -> "MatrixQ":
        t: dict = {}
        for j, col in self._c.items():
            for i, v in col.items():
                t.setdefault(i, {})[j] = v
        return MatrixQ._of(self.cols, self.rows, t)

    def __matmul__(self, other: "MatrixQ") -> "MatrixQ":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        # column j of the product combines the columns of self that column j
        # of other names
        acc: dict = {}
        for j, ocol in other._c.items():
            for k, b in ocol.items():
                for i, a in self._c.get(k, {}).items():
                    acc[i, j] = acc.get((i, j), 0) + a * b
        return MatrixQ(self.rows, other.cols, acc)

    def __neg__(self) -> "MatrixQ":
        return MatrixQ._of(self.rows, self.cols,
                           {j: {i: -v for i, v in col.items()}
                            for j, col in self._c.items()})

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "MatrixQ":
        """The given (distinct) rows and columns, in the given order; entries
        outside the selection are dropped."""
        rowpos = {i: k for k, i in enumerate(rows)}
        picked = ({rowpos[i]: v for i, v in self._c.get(j, {}).items()
                   if i in rowpos} for j in cols)
        return MatrixQ._of(len(rows), len(cols),
                           {k: col for k, col in enumerate(picked) if col})

    def column(self, j: int) -> dict:
        """Column j as a new {i: v} dict of its nonzero entries."""
        return dict(self._c.get(j, {}))

    def to_rows(self) -> list[list[int | Fraction]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for j, col in self._c.items():
            for i, v in col.items():
                out[i][j] = v
        return out

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entry(j, i) == v for (i, j), v in self.items())

    def __eq__(self, other) -> bool:
        return (isinstance(other, MatrixQ)
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self._c == other._c)

    __hash__ = None  # mutable dict inside; treat as unhashable

    def __repr__(self) -> str:
        return f"MatrixQ({self.rows}x{self.cols}, nnz={self.nnz})"


# ---------------------------------------------------------------------------
# elimination engine

def _integral(vec: dict) -> dict:
    """Scale `vec` (contract values) in place by the lcm of its
    denominators, making it a nonzero multiple of itself with `int` entries
    and the same support; return it.  A row without a `Fraction` is left
    alone."""
    if not set(map(type, vec.values())) <= {int}:
        den = lcm(*(v.denominator for v in vec.values()))
        for c, v in vec.items():
            vec[c] = v.numerator * (den // v.denominator)
    return vec


def _primitive(row: dict) -> None:
    """Divide an integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g != 1:
        for c in row:
            row[c] //= g


def _reduce(row: dict, prow: dict, c: int) -> None:
    """Clear column `c` of the integer `row` against the integer pivot row
    `prow`, in place.

    A unit pivot pv gives row - (f*pv)*prow with f = row[c]; otherwise
    (pv/g)*row - (f/g)*prow with g = gcd(pv, f), made primitive.  Either way
    the result is a nonzero multiple of the rational update
    row - (f/pv)*prow and has its support, in the sense of Bareiss: no rank
    depends on a modulus."""
    pv = prow[c]
    f = row[c]
    unit = pv == 1 or pv == -1
    if unit:
        f *= pv
    else:
        g = gcd(pv, f)
        a = pv // g
        f //= g
        if a != 1:
            for cc in row:
                row[cc] *= a
    for cc, v in prow.items():
        nv = row.get(cc, 0) - f * v
        if nv:
            row[cc] = nv
        else:
            del row[cc]
    if not unit and row:
        _primitive(row)


class IncrementalSpan:
    """Echelon form of a growing family of vectors: the package's one
    reduction loop.

    `add` reduces the vector against the vectors held so far, each time at
    the largest coordinate of its support, and either absorbs it (returns
    True, span grew) or discards it (returns False, dependent).  Much
    cheaper than re-running a full elimination per candidate.
    """

    __slots__ = ("_rows",)

    def __init__(self):
        # pivot coordinate -> primitive integer multiple of the reduced vector
        self._rows: dict[int, dict] = {}

    def add(self, vec: Mapping) -> bool:
        """Precondition, not checked: `vec` maps nonnegative coordinates to
        `int`s or `Fraction`s, as a column of a `MatrixQ` does."""
        r = _integral({i: v for i, v in vec.items() if v})
        while r:
            c = max(r)
            pivot = self._rows.get(c)
            if pivot is None:
                _primitive(r)
                self._rows[c] = r
                return True
            _reduce(r, pivot, c)
        return False

    @property
    def pivots(self):
        """The pivot coordinates, a read-only view: the largest coordinate
        of the support of each stored vector, one per vector, in the order
        the vectors were stored."""
        return self._rows.keys()


def _accepted_columns(m: MatrixQ, tagged: bool = False):
    """The one driver of `IncrementalSpan`: feed it the columns of `m` as
    stored, from left to right, and yield (j, pivot, stored vector) for each
    column j it accepts.  With `tagged`, row i sits at coordinate m.cols + i
    and column j also carries e_j at coordinate j, below every row, so a
    stored vector holds the column combination that reduced it."""
    span = IncrementalSpan()
    for j in range(m.cols):
        col = m._c.get(j, {})
        if tagged:
            col = {j: 1, **{m.cols + i: v for i, v in col.items()}}
        if span.add(col):
            c = next(reversed(span.pivots))
            yield j, c, span._rows[c]


def _quotient(s, p) -> int | Fraction:
    """s / p for a nonzero pivot p, exact and under the value contract; in
    `Fraction` only when p is not a unit."""
    if p == 1 or p == -1:
        return as_rational(s * p)
    from fractions import Fraction
    return as_rational(Fraction(s, p))


def rank(m: MatrixQ) -> int:
    """Rank over Q, exact: the accepted columns of m, or of its transpose
    when that has fewer columns (a rank is transpose-invariant)."""
    if m.cols > m.rows:
        m = m.transpose()
    return sum(1 for _ in _accepted_columns(m))


class Subspace(NamedTuple):
    """A subspace of Q^ambient_dim given by an independent tuple of sparse
    {index: value} vectors, as `kernel_basis` and `image_basis` build it."""

    ambient_dim: int
    basis: tuple[dict, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def kernel_basis(m: MatrixQ) -> Subspace:
    """A basis of {v : m v = 0}; its size is cols - rank.  The vector of a
    free (non-pivot) column f is 1 at f and 0 at every other free column.

    Read off the tagged column reduction: a column f whose row part reduces
    to zero is stored as its tag part alone, pivoting on its own e_f at
    coordinate f, and holds the combination of f with the pivot columns
    before f that m sends to zero; divided by its pivot it is the vector of
    f, indexed by column as stored."""
    vecs = []
    for _, c, vec in _accepted_columns(m, tagged=True):
        if c < m.cols:
            p = vec[c]
            vecs.append({k: _quotient(v, p) for k, v in vec.items()})
    return Subspace(m.cols, tuple(vecs))


def image_basis(m: MatrixQ) -> Subspace:
    """A basis of the column space: the original columns accepted by the
    column reduction, which are the leftmost independent columns, in column
    order."""
    return Subspace(m.rows, tuple(m.column(j)
                                  for j, _, _ in _accepted_columns(m)))


def sum_dim(a: Subspace, b: Subspace) -> int:
    """dim(a + b), exact."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    entries = {}
    for j, vec in enumerate(a.basis + b.basis):
        for i, v in vec.items():
            entries[(i, j)] = v
    return rank(MatrixQ(a.ambient_dim, a.dim + b.dim, entries))


def column_lows(m: MatrixQ) -> dict[int, int]:
    """The lows of the left-to-right column reduction of `m`: {column: low
    row} for every column whose reduced form is nonzero.

    The columns go into an `IncrementalSpan` from left to right as stored,
    so the pivot of a stored vector is the low: the largest row index of
    the reduced column, and the lows are distinct.  A column is accepted
    iff it is not in the span of the earlier columns, so the number of
    lows is rank m.
    """
    return {j: c for j, c, _ in _accepted_columns(m)}


class Signature(NamedTuple):
    pos: int
    neg: int
    null: int


def signature_sym(m: MatrixQ) -> Signature:
    """Inertia (pos, neg, null) of a symmetric matrix by exact congruence.

    Diagonalizes by symmetric row/column operations; each step divides
    exactly (`_quotient`), never in floating point.  When no nonzero
    diagonal pivot exists, a hyperbolic pair M[i][j] != 0 is converted to a
    usable pivot by the congruence row_i += row_j / col_i += col_j; the pair
    then contributes exactly (1, 1, 0), the standard hyperbolic count.

    This is the algorithm door: a matrix that is not square and symmetric
    raises `NotSymmetric`, whoever built it.  `io.load_pairing` checks a
    pairing file itself so as to name the field, and `cup_pairing` leaves
    the symmetry that a coherent orientation implies to this check.
    """
    if m.rows != m.cols:
        raise NotSymmetric(f"matrix is {m.rows}x{m.cols}, not square")
    if not m.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
    n = m.rows
    a = m.to_rows()
    remaining = list(range(n))
    pos = neg = 0
    while remaining:
        piv = next((i for i in remaining if a[i][i]), None)
        if piv is None:
            hyp = next(((i, j) for i in remaining for j in remaining
                        if i < j and a[i][j]), None)
            if hyp is None:
                break  # all-zero block: the radical
            i, j = hyp
            for k in range(n):  # row_i += row_j, then col_i += col_j
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            piv = i
        remaining.remove(piv)
        d = a[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for r in remaining:
            f = _quotient(a[r][piv], d)
            if not f:
                continue
            for k in range(n):
                a[r][k] -= f * a[piv][k]
            for k in range(n):
                a[k][r] -= f * a[k][piv]
    return Signature(pos, neg, n - pos - neg)
