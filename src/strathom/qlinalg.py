"""Exact rational linear algebra on sparse matrices.

Everything downstream (homology dimensions, Mayer-Vietoris bookkeeping,
signatures) reduces to ranks, kernels, images and congruence
diagonalization computed here.  A value is an `int`, or a reduced
`fractions.Fraction` whose denominator is not 1.  A caller's value is
checked and coerced (`as_rational`) at three doors: `MatrixQ(...)`,
`IncrementalSpan.add` and `solve`.  A matrix derived from a valid one
(transpose, submatrix, negation, hstack) inherits the contract without a
second check, and every value handed back follows it, so the ±1 boundary
matrices of a triangulation hold plain `int`s.  One reduction loop,
`IncrementalSpan.add`, serves every rank: it reduces exact Python `int`
rows (a row holding a `Fraction` is scaled by the lcm of its
denominators), fraction-free in the sense of Bareiss, always at the least
coordinate of the support.  rank, kernel_basis, image_basis and solve feed
it the rows of a matrix, so their pivots are the leftmost independent
columns; `column_lows`, the left-to-right column reduction of persistence,
feeds it the columns.  `solve` reads a kernel vector of [m | b], so one
back-substitution serves `kernel_basis` and `solve`; it divides in
`Fraction` only by a non-unit pivot.  There are no floats, no tolerances
and no modular shortcut anywhere: a rank is a rank.

Values are immutable after construction and safe to share across threads;
all operations are pure functions.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Container, Iterable, Mapping, NamedTuple, Sequence

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
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"cannot interpret {x!r} as a rational number")


class MatrixQ:
    """A rows x cols matrix over Q stored sparsely; zeros are never stored.

    The constructor checks the shape and every entry's position, and coerces
    every value to the contract; `_of` adopts entries that already meet it."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Mapping | None = None):
        if rows < 0 or cols < 0:
            raise DimensionMismatch(f"negative shape ({rows}, {cols})")
        self.rows = rows
        self.cols = cols
        e = {}
        if entries:
            for key, v in entries.items():
                i, j = key
                if not (0 <= i < rows and 0 <= j < cols):
                    raise DimensionMismatch(
                        f"entry ({i},{j}) outside {rows}x{cols} matrix")
                v = as_rational(v)
                if v:
                    e[key] = v
        self._e = e

    @classmethod
    def _of(cls, rows: int, cols: int, entries: dict) -> "MatrixQ":
        """Adopt `entries` unchecked: nonzero contract values, in range."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._e = entries
        return m

    @classmethod
    def from_rows(cls, data: Iterable[Iterable]) -> "MatrixQ":
        data = [list(r) for r in data]
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise DimensionMismatch("ragged rows")
        return cls(len(data), cols, {(i, j): v for i, row in enumerate(data)
                                     for j, v in enumerate(row)})

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    def entry(self, i: int, j: int) -> int | Fraction:
        return self._e.get((i, j), 0)

    def items(self):
        return self._e.items()

    @property
    def nnz(self) -> int:
        return len(self._e)

    def is_zero(self) -> bool:
        return not self._e

    def transpose(self) -> "MatrixQ":
        return MatrixQ._of(self.cols, self.rows,
                           {(j, i): v for (i, j), v in self._e.items()})

    def __matmul__(self, other: "MatrixQ") -> "MatrixQ":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        # index other's rows once; boundary-type matrices are very sparse
        rows_of_other = {}
        for (k, j), v in other._e.items():
            rows_of_other.setdefault(k, []).append((j, v))
        acc: dict = {}
        for (i, k), a in self._e.items():
            for j, b in rows_of_other.get(k, ()):
                key = (i, j)
                s = acc.get(key, 0) + a * b
                if s:
                    acc[key] = s
                elif key in acc:
                    del acc[key]
        return MatrixQ(self.rows, other.cols, acc)

    def __add__(self, other: "MatrixQ") -> "MatrixQ":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        acc = dict(self._e)
        for key, v in other._e.items():
            s = acc.get(key, 0) + v
            if s:
                acc[key] = s
            elif key in acc:
                del acc[key]
        return MatrixQ(self.rows, self.cols, acc)

    def __neg__(self) -> "MatrixQ":
        return MatrixQ._of(self.rows, self.cols,
                           {k: -v for k, v in self._e.items()})

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "MatrixQ":
        """The given (distinct) rows and columns, in the given order; entries
        outside the selection are dropped."""
        rowpos = {i: k for k, i in enumerate(rows)}
        colpos = {j: k for k, j in enumerate(cols)}
        return MatrixQ._of(len(rows), len(cols),
                           {(rowpos[i], colpos[j]): v
                            for (i, j), v in self._e.items()
                            if i in rowpos and j in colpos})

    def column(self, j: int) -> dict:
        return {i: v for (i, jj), v in self._e.items() if jj == j}

    def to_rows(self) -> list[list[int | Fraction]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self._e.items():
            out[i][j] = v
        return out

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(self._e.get((j, i)) == v for (i, j), v in self._e.items())

    def __eq__(self, other) -> bool:
        return (isinstance(other, MatrixQ)
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self._e == other._e)

    __hash__ = None  # mutable dict inside; treat as unhashable

    def __repr__(self) -> str:
        return f"MatrixQ({self.rows}x{self.cols}, nnz={self.nnz})"


def hstack(mats: list[MatrixQ]) -> MatrixQ:
    if not mats:
        raise DimensionMismatch("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionMismatch("hstack with differing row counts")
    entries = {}
    off = 0
    for m in mats:
        for (i, j), v in m.items():
            entries[(i, j + off)] = v
        off += m.cols
    return MatrixQ._of(rows, off, entries)


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

    `add` reduces the vector against the rows held so far, each time at the
    least coordinate of its support, and either absorbs it (returns True,
    span grew) or discards it (returns False, dependent).  Much cheaper than
    re-running a full elimination per candidate.
    """

    __slots__ = ("ambient_dim", "_rows")

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        # pivot coordinate -> primitive integer multiple of the reduced vector
        self._rows: dict[int, dict] = {}

    def add(self, vec: Mapping) -> bool:
        r = _integral({i: as_rational(v) for i, v in vec.items() if v})
        for i in r:
            if not (0 <= i < self.ambient_dim):
                raise DimensionMismatch("vector outside ambient dimension")
        while r:
            c = min(r)
            pivot = self._rows.get(c)
            if pivot is None:
                _primitive(r)
                self._rows[c] = r
                return True
            _reduce(r, pivot, c)
        return False

    @property
    def pivots(self):
        """The pivot coordinates, a read-only view: the least index of the
        support of each stored row, one per row, in the order the rows were
        stored."""
        return self._rows.keys()


def _echelon(m: MatrixQ) -> dict[int, dict]:
    """The rows of `m` fed last to first through an `IncrementalSpan`:
    {pivot column: integer row}.  A row holds only its pivot and larger
    columns, and the pivots are the columns outside the span of the columns
    before them, whatever the order of the rows.

    The order only sets the fill-in.  In a boundary matrix of
    lexicographically ordered simplices a later row tends to start at a
    later column, so fed last to first most rows meet no stored pivot: on
    the 3706-simplex I x S^1 x T^2 the stored rows hold 1.3 to 8 times
    fewer entries than fed first to last."""
    rows = [{} for _ in range(m.rows)]
    for (i, j), v in m._e.items():
        rows[i][j] = v
    span = IncrementalSpan(m.cols)
    for row in reversed(rows):
        span.add(row)
    return span._rows


def _quotient(s, p) -> int | Fraction:
    """s / p for a nonzero pivot p, exact and under the value contract; in
    `Fraction` only when p is not a unit."""
    return as_rational(s * p if p == 1 or p == -1 else Fraction(s, p))


def rank(m: MatrixQ) -> int:
    """Rank over Q, exact."""
    return len(_echelon(m))


class Subspace(NamedTuple):
    """A subspace of Q^ambient_dim given by an independent tuple of sparse
    {index: value} vectors, as `kernel_basis` and `image_basis` build it."""

    ambient_dim: int
    basis: tuple[dict, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _kernel_vectors(rows: dict[int, dict], free: Iterable[int]) -> list[dict]:
    """For each free (non-pivot) column f of the echelon `rows`, the kernel
    vector that is 1 at f and 0 at every other free column."""
    # an echelon row holds only its pivot and larger columns, so
    # back-substitution runs by descending pivot.  It visits only the rows
    # holding a coordinate already set: users[cc] lists -c for every row
    # with pivot c holding cc, so a min-heap pops the largest pivot first
    users: dict[int, list[int]] = {}
    for c, row in rows.items():
        for cc in row:
            if cc != c:
                users.setdefault(cc, []).append(-c)
    vecs = []
    for f in free:
        x = {f: 1}
        todo = list(users.get(f, ()))
        heapify(todo)
        last = None
        while todo:
            c = -heappop(todo)
            if c == last:
                continue
            last = c
            row = rows[c]
            s = 0
            for cc, v in row.items():
                if cc in x:
                    s += v * x[cc]
            if s:
                x[c] = _quotient(-s, row[c])
                for k in users.get(c, ()):
                    heappush(todo, k)
        vecs.append(x)
    return vecs


def kernel_basis(m: MatrixQ) -> Subspace:
    """A basis of {v : m v = 0}; its size is cols - rank.  The vector of a
    free (non-pivot) column f is 1 at f and 0 at every other free column."""
    rows = _echelon(m)
    return Subspace(m.cols, tuple(_kernel_vectors(
        rows, (f for f in range(m.cols) if f not in rows))))


def image_basis(m: MatrixQ) -> Subspace:
    """A basis of the column space: the original columns at the pivots,
    which are the leftmost independent columns, in column order."""
    columns = {j: {} for j in sorted(_echelon(m))}
    for (i, j), v in m._e.items():
        if j in columns:
            columns[j][i] = v
    return Subspace(m.rows, tuple(columns.values()))


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


def column_lows(m: MatrixQ, skip: Container[int] = ()) -> dict[int, int]:
    """The lows of the left-to-right column reduction of `m`: {column: low
    row} for every column whose reduced form is nonzero.

    The columns, except those in `skip`, go into an `IncrementalSpan` from
    left to right with their rows reversed (row i at coordinate
    m.rows - 1 - i), so reducing at the least coordinate is reducing at the
    largest row: the row that a stored vector pivots on is the low, the
    largest row index of the reduced column, and the lows are distinct.  A
    column is accepted iff it is not in the span of the earlier fed columns,
    so with `skip` empty the number of lows is rank m.  A skipped column
    that lies in the span of the earlier columns changes neither the
    accepted columns nor their lows.
    """
    cols: list[dict] = [{} for _ in range(m.cols)]
    top = m.rows - 1
    for (i, j), v in m._e.items():
        cols[j][top - i] = v
    span = IncrementalSpan(m.rows)
    lows = {}
    for j, col in enumerate(cols):
        if j not in skip and span.add(col):
            lows[j] = top - next(reversed(span.pivots))
    return lows


def solve(m: MatrixQ, b: Mapping) -> dict | None:
    """One solution x of m x = b (free coordinates 0), or None if insoluble.

    x is the negated kernel vector of [m | b] at the column m.cols of b; it
    exists exactly when that column is not a pivot, that is when b lies in
    the span of the columns of m."""
    aug = dict(m._e)
    for i, v in b.items():
        v = as_rational(v)
        if v:
            if not (0 <= i < m.rows):
                raise DimensionMismatch("right-hand side outside row range")
            aug[(i, m.cols)] = v
    rows = _echelon(MatrixQ._of(m.rows, m.cols + 1, aug))
    if m.cols in rows:
        return None
    x = _kernel_vectors(rows, [m.cols])[0]
    del x[m.cols]
    return {c: -v for c, v in x.items()}


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
    """
    if m.rows != m.cols:
        raise NotSymmetric(f"matrix is {m.rows}x{m.cols}, not square")
    if not m.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
    n = m.rows
    a = [[m.entry(i, j) for j in range(n)] for i in range(n)]
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
