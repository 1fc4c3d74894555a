"""Independent brute-force oracles used to pin expected values in the tests.

The rank oracles deliberately share no code with the package: ranks come
from dense determinant expansion over all square submatrices (small inputs)
or from dense Gaussian elimination modulo several primes (larger inputs),
and both paths avoid the sparse elimination engine under test.

The reference elimination engine at the end (`ref_echelon` and the bases
built on it) is the exception: its loop `_ref_add` is the rational
`Fraction` form of the package's `IncrementalSpan.add`, so the span
verdicts it pins are not an independent check.  It feeds the rows of a
matrix, while the package feeds the columns, so the rank and the bases it
pins compare two reduction orders.  It takes and returns `Fraction` values
throughout (`ref_rows` converts), while the package stores an integral
value as an `int`; the two compare equal value for value.

The matrix helpers in between (`hstack`, `vstack`, `block_diag`, `scaled`)
assemble package `MatrixQ` values for tests; no command of the package
needs them.

`ref_ih_direct` is the brute-force intersection homology by a second
route: the package's `rank` on two submatrices of the full boundary matrix
per degree and threshold.  That `rank` runs on `IncrementalSpan`, the same
reduction loop as the cleared column reduction (`column_lows` under
`simplicial._filtered_lows`) that `ih_direct` reads its ranks from, so
the two share their arithmetic; what they do not share is the route: one
reduction of each submatrix (of its columns, or of its rows where they
are fewer) against one left-to-right pass over the columns of the whole
boundary matrix, read through the pairing lemma.

`ref_hi_extreme` gives intersection-space homology at the extreme
perversities from the long exact sequence of the pair (Mbar, boundary)
(`ref_les_third_dims`), with the package's `rank` on each whole block of
the boundary restriction.  It is not independent of `hi_dims` either: at
those perversities `hi_dims` reduces to the same rank arithmetic.

`ref_hi_quotient` is the independent one: intersection-space homology of
an isolated singularity at every perversity, read off a triangulation of
Mbar as the homology of a quotient complex.  It shares `boundary_matrix`
and the elimination engine with the package, but neither the clearing of
`simplicial._filtered_lows` nor anything of the Mayer-Vietoris rank
family behind `hi_dims`.
"""

from fractions import Fraction
from itertools import combinations

from strathom.chains import GradedVS
from strathom.qlinalg import DimensionMismatch, MatrixQ, column_lows, rank
from strathom.simplicial import boundary_matrix
from strathom.stratified import ModelError


def det_dense(rows):
    """Determinant by expansion along the first row (exact, tiny inputs)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * Fraction(rows[0][j]) * det_dense(minor)
    return total


def rank_by_minors(rows):
    """Rank = size of the largest nonvanishing minor.  O(huge); inputs <= 5x5."""
    if not rows or not rows[0]:
        return 0
    nr, nc = len(rows), len(rows[0])
    for size in range(min(nr, nc), 0, -1):
        for ri in combinations(range(nr), size):
            for ci in combinations(range(nc), size):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det_dense(sub):
                    return size
    return 0


def rank_mod_p(rows, p):
    """Dense row reduction of an integer matrix modulo a prime p."""
    a = [[x % p for x in row] for row in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c] % p), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
        if r == nr:
            break
    return r


def rank_int_oracle(rows):
    """Rank of an integer matrix: max of ranks over several primes.

    rank_p <= rank_Q always, with equality for all p not dividing some
    maximal minor, so the max over a few large primes is the rational rank
    for the small matrices used in tests.
    """
    if not rows or not rows[0]:
        return 0
    return max(rank_mod_p(rows, p) for p in (10007, 10009, 10037))


def convolve(a, b):
    """Degreewise convolution of two Betti vectors (Kunneth oracle)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# matrix assembly helpers

def hstack(mats):
    """The MatrixQ blocks side by side, left to right."""
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
    return MatrixQ(rows, off, entries)


def vstack(mats):
    """The MatrixQ blocks stacked top to bottom."""
    if not mats:
        raise DimensionMismatch("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionMismatch("vstack with differing column counts")
    entries = {}
    off = 0
    for m in mats:
        for (i, j), v in m.items():
            entries[(i + off, j)] = v
        off += m.rows
    return MatrixQ(off, cols, entries)


def block_diag(mats):
    """The MatrixQ blocks along the diagonal."""
    entries = {}
    roff = coff = 0
    for m in mats:
        for (i, j), v in m.items():
            entries[(i + roff, j + coff)] = v
        roff += m.rows
        coff += m.cols
    return MatrixQ(roff, coff, entries)


def scaled(m, c):
    """The MatrixQ m times the scalar c."""
    return MatrixQ(m.rows, m.cols, {k: c * v for k, v in m.items()})


# ---------------------------------------------------------------------------
# reference elimination engine

def ref_rows(m):
    """The rows of a MatrixQ as {column: Fraction} dicts."""
    rows = [dict() for _ in range(m.rows)]
    for (i, j), v in m.items():
        rows[i][j] = Fraction(v)
    return rows


def _ref_add(rows, vec):
    """Reduce the `Fraction` vector `vec` at its least coordinate against the
    echelon `rows` ({pivot: row}); store it and return True if it is not in
    their span, else return False."""
    r = {i: Fraction(v) for i, v in vec.items() if v}
    while r:
        c = min(r)
        pivot = rows.get(c)
        if pivot is None:
            rows[c] = r
            return True
        f = r[c] / pivot[c]
        for cc, v in pivot.items():
            nv = r.get(cc, 0) - f * v
            if nv:
                r[cc] = nv
            elif cc in r:
                del r[cc]
    return False


def ref_echelon(rows):
    """{pivot column: row} of the `Fraction` row dicts fed last to first
    through `_ref_add`, the loop of `ref_span_verdicts`.

    The library follows another order: it feeds the columns of a matrix
    left to right (`strathom.qlinalg.column_lows`), not its rows.  So a rank,
    a set of pivot columns or a basis compared with these rows checks two
    reduction orders against each other: the pivots are the leftmost
    independent columns either way, and the kernel vector of a free column
    (1 there, 0 at every other free column) is unique.  Both orders run the
    same rule, a vector reduced at its least coordinate, in different
    arithmetic (rational rows, divided by the pivot, against integer
    vectors).
    """
    out = {}
    for row in reversed(rows):
        _ref_add(out, row)
    return out


def ref_kernel_basis(m, pivots):
    """Kernel vectors of m, one per free column f (1 at f, 0 at the other
    free columns), by back-substitution over its `ref_echelon` rows by
    descending pivot, for all free columns at once: at[c] maps f to the
    c-coordinate of the vector of f."""
    free = [j for j in range(m.cols) if j not in pivots]
    at = {f: {f: Fraction(1)} for f in free}
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        acc = {}
        for cc, v in row.items():
            for f, y in at.get(cc, {}).items():
                acc[f] = acc.get(f, 0) + v * y
        at[c] = {f: -s / row[c] for f, s in acc.items() if s}
    vecs = {f: {} for f in free}
    for c, column in at.items():
        for f, y in column.items():
            vecs[f][c] = y
    return [vecs[f] for f in free]


def ref_image_basis(m, pivots):
    """The columns of m at its `ref_echelon` pivot columns, in column
    order."""
    columns = {c: {} for c in sorted(pivots)}
    for (i, j), v in m.items():
        if j in columns:
            columns[j][i] = v
    return list(columns.values())


def ref_solve(m, b):
    """One solution of m x = b (free coordinates 0), or None."""
    rows = ref_rows(m)
    bcol = m.cols
    for i, v in b.items():
        if v:
            rows[i][bcol] = Fraction(v)
    pivots = ref_echelon(rows)
    if bcol in pivots:
        return None
    x = {}
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        s = row.get(bcol, Fraction(0))
        for cc, v in row.items():
            if cc != c and cc != bcol and cc in x:
                s -= v * x[cc]
        if s:
            x[c] = s / row[c]
    return x


def ref_span_verdicts(ambient_dim, vecs):
    """For each vector in turn, whether it enlarges the span of the earlier
    ones (echelon rows over `Fraction`, reduced at the least coordinate)."""
    rows = {}
    out = []
    for vec in vecs:
        assert all(0 <= i < ambient_dim for i, v in vec.items() if v)
        out.append(_ref_add(rows, vec))
    return out


def ref_column_lows(m):
    """The persistence reduction over `Fraction`: each column of m, left to
    right, has earlier reduced columns with its low (largest nonzero row)
    subtracted until its low is new or it is zero; {column: low} of the
    nonzero reduced columns."""
    reduced = {}
    lows = {}
    for j in range(m.cols):
        col = {i: Fraction(v) for (i, jj), v in m.items() if jj == j}
        while col:
            low = max(col)
            k = lows.get(low)
            if k is None:
                lows[low] = j
                reduced[j] = col
                break
            f = col[low] / reduced[k][low]
            for i, v in reduced[k].items():
                nv = col.get(i, Fraction(0)) - f * v
                if nv:
                    col[i] = nv
                else:
                    col.pop(i, None)
    return {j: low for low, j in lows.items()}


def ref_cycle_representatives(d_out, d_in):
    """Cycles of d_out whose classes form a basis of ker d_out / im d_in, by
    the kernel-then-filter route: a full kernel basis of d_out, each vector
    kept where it enlarges the span of im d_in and of the vectors kept
    before it.  Built on the reference engine above, so it shares no
    elimination code with `strathom.chains.cycle_representatives`."""
    image = ref_image_basis(d_in, ref_echelon(ref_rows(d_in)))
    kernel = ref_kernel_basis(d_out, ref_echelon(ref_rows(d_out)))
    grew = ref_span_verdicts(d_out.cols, image + kernel)
    return [v for v, g in zip(kernel, grew[len(image):]) if g]


# ---------------------------------------------------------------------------
# intersection homology by ranks of submatrices

def ref_ih_direct(st, p_at_c):
    """`strathom.simplicial.ih_direct` by its definition: in each degree d,
    with t = clamp(d - codim + p, -1, d - 1), the allowable columns are the
    d-simplices with Sigma-face dimension f <= t, D_d holds all non-interior
    (d - 1)-simplices as rows and C_d those with f > max(-1, t - 1); the
    ranks come from `rank` on those submatrices of `boundary_matrix`."""
    K = st.complex
    face_dims = [[sum(v in st.sigma for v in simplex) - 1
                  for simplex in K.simplices(d)] for d in range(K.dim + 1)]
    ic_dim, ranks = {}, {}
    for d in range(K.dim + 1):
        t = max(-1, min(d - st.codim + p_at_c, d - 1))
        cols = [i for i, f in enumerate(face_dims[d]) if f <= t]
        ic_dim[d] = len(cols)
        if d == 0 or not cols:
            continue
        bd = boundary_matrix(K, d)
        below, t_below = face_dims[d - 1], max(-1, t - 1)
        keep = [i for i, f in enumerate(below) if f < d - 1]
        bad = [i for i in keep if below[i] > t_below]
        r_bad = rank(bd.submatrix(bad, cols))
        ic_dim[d] -= r_bad
        ranks[d] = rank(bd.submatrix(keep, cols)) - r_bad
    return GradedVS({d: ic_dim[d] - ranks.get(d, 0) - ranks.get(d + 1, 0)
                     for d in range(K.dim + 1)})


# ---------------------------------------------------------------------------
# extreme perversities by the long exact sequence

def ref_les_third_dims(source, target, blocks):
    """Dimension of the third term of the long exact sequence through the
    graded map beta : source -> target, given as {degree: matrix}, a
    missing degree being zero.

    For ... -> B_j --beta--> C_j -> H_j -> B_{j-1} --beta--> C_{j-1} -> ...
    over a field, dim H_j = dim coker(beta_j) + dim ker(beta_{j-1}); degree
    -1 contributes nothing.  Each degree is ranked once, with `rank` on the
    whole block."""
    degs = set(source.degrees()) | set(target.degrees())
    if not degs:
        return GradedVS()
    lo, hi = min(degs), max(degs) + 1
    r = {j: rank(blocks[j]) if j in blocks else 0 for j in range(lo, hi + 1)}
    return GradedVS({j: target[j] - r[j]
                     + (source[j - 1] - r[j - 1] if j > lo else 0)
                     for j in range(lo, hi + 1)})


def ref_hi_extreme(space, p):
    """Reduced intersection-space homology at an extreme perversity.

    Negative perversity: homology of the pair (Mbar, boundary), from the
    long exact sequence through the boundary restriction.  At or above l:
    homology of Mbar itself.  Not an independent reference: link homology
    stops at degree l, so at these perversities `hi_dims` reduces to the
    same rank arithmetic on the boundary restriction."""
    if p < 0:
        return ref_les_third_dims(space.boundary_h(), space.m_h,
                                  space.boundary_restriction)
    if p >= space.l:
        return space.m_h
    raise ModelError(
        f"perversity value {p} is not extreme for link dimension {space.l}")


# ---------------------------------------------------------------------------
# intersection-space homology of an isolated singularity by a quotient

def ref_hi_quotient(pm, p):
    """Reduced intersection-space homology of Mbar with its boundary L
    coned to a point, at perversity p = p(l + 1), l = dim L.

    With k = l - p, the spatial homology truncation of L is the subcomplex
    tau of C(L) spanned by the boundary simplices of dimension < k and, for
    1 <= k <= l, by the boundary k-simplices that carry a low in the column
    reduction (`column_lows`) of d_k on L: those pivot columns span a
    complement of the k-cycles that d_k maps onto the (k - 1)-boundaries
    (Banagl, Intersection Spaces, Spatial Homology Truncation, and String
    Theory, 2010).  Reduced HI is the homology of the quotient C(Mbar)/tau,
    whose differential is `boundary_matrix` on the simplices outside tau,
    counted by the `rank` of each restricted matrix, with no clearing, so
    it shares no clearing with the triangulation side of the package.  No
    degree-0 correction is made: for k <= 0, tau = 0 and the intersection
    space is Mbar plus a disjoint point, whose reduced homology is that of
    Mbar.

    It shares `boundary_matrix` and the elimination engine with the
    package, and not the Mayer-Vietoris rank family of `hi_dims`."""
    K = pm.complex
    l = max(len(s) for s in pm.boundary) - 1
    k = l - p
    on_l = {d: [i for i, s in enumerate(K.simplices(d)) if s in pm.boundary]
            for d in range(K.dim + 1)}
    tau = {d: set(on_l[d]) for d in range(min(k, K.dim + 1))}
    if 1 <= k <= l:
        lows = column_lows(boundary_matrix(K, k, on_l[k - 1], on_l[k]))
        tau[k] = {on_l[k][c] for c in lows}
    keep = [[i for i in range(K.n_simplices(d)) if i not in tau.get(d, ())]
            for d in range(K.dim + 1)]
    r = [0] + [rank(boundary_matrix(K, d, keep[d - 1], keep[d]))
               for d in range(1, K.dim + 1)] + [0]
    return GradedVS({d: len(keep[d]) - r[d] - r[d + 1]
                     for d in range(K.dim + 1)})
