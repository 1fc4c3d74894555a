"""Graded vector spaces, chain complexes and the operations on them.

This module is the homological middle layer: finitely supported graded
dimensions (`GradedVS`), degreewise linear maps (`GradedMap`), chain
complexes with checked square-zero differentials, Betti numbers by rank,
mapping cones, tensor products with Koszul signs and truncation of graded
data.  `cleared_lows` is the one cleared column reduction: homology counts
its lows, `ih_direct` reads them, and the representative cycles of induced
maps and the cup pairing vanish on them.  The Mayer-Vietoris dimensions
downstream are rank arithmetic on the boundary restriction, in `stratified`.

Conventions.  Differentials lower degree: d_j : C_j -> C_{j-1}.  Tensor
bases in degree j follow the one Kunneth layout `GradedVS.tensor_blocks`
states; the stratified module's coordinate projections rely on it.
Degree -1 (and any other absent degree) reads as dimension 0.

All values are immutable after construction; operations are pure.  The
record `HomologyData` is a `typing.NamedTuple`: an immutable tuple that
compares equal to a plain tuple holding the same fields.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple

from .qlinalg import (
    DimensionMismatch,
    MatrixQ,
    column_lows,
    hstack,
    kernel_basis,
    solve,
)


class GradedVS:
    """A finite-dimensional graded vector space recorded by its dimensions."""

    __slots__ = ("_dims",)

    def __init__(self, dims: Mapping[int, int] | Iterable[int] | None = None):
        d = {}
        pairs = (dims.items() if isinstance(dims, Mapping)
                 else enumerate(dims or ()))
        for j, n in pairs:
            if n < 0:
                raise ValueError(f"negative dimension {n} in degree {j}")
            if n:
                d[int(j)] = int(n)
        self._dims = d

    def __getitem__(self, j: int) -> int:
        return self._dims.get(j, 0)

    def degrees(self) -> list[int]:
        return sorted(self._dims)

    @property
    def top(self) -> int:
        return max(self._dims) if self._dims else -1

    def euler(self) -> int:
        return sum((-1) ** j * n for j, n in self._dims.items())

    def is_zero(self) -> bool:
        return not self._dims

    def as_tuple(self, lo: int = 0, hi: int | None = None) -> tuple[int, ...]:
        """Dimensions in degrees lo..hi inclusive (hi defaults to the top)."""
        if hi is None:
            hi = max(self.top, lo)
        return tuple(self[j] for j in range(lo, hi + 1))

    def convolve(self, other: "GradedVS") -> "GradedVS":
        out: dict[int, int] = {}
        for i, a in self._dims.items():
            for j, b in other._dims.items():
                out[i + j] = out.get(i + j, 0) + a * b
        return GradedVS(out)

    def tensor_blocks(self, other: "GradedVS",
                      j: int) -> list[tuple[int, int, int, int]]:
        """Kunneth layout of degree j of self (x) other.

        One `(q, dim self_{j-q}, dim other_q, offset)` per nonzero block, by
        ascending second-factor degree q; the block sizes sum to
        `self.convolve(other)[j]`.  Inside a block the pairs (self index,
        other index) run lexicographically, so the pair (i, k) sits at
        coordinate offset + i * dim other_q + k.  Every Kunneth coordinate
        in this package is read from here.
        """
        out = []
        off = 0
        for q in sorted(other._dims):
            da, db = self[j - q], other._dims[q]
            if da:
                out.append((q, da, db, off))
                off += da * db
        return out

    def truncate_le(self, cut: int) -> "GradedVS":
        """Keep degrees <= cut, zero elsewhere."""
        return GradedVS({j: n for j, n in self._dims.items() if j <= cut})

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedVS) and self._dims == other._dims

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._dims.items())))

    def __repr__(self) -> str:
        if not self._dims:
            return "GradedVS(0)"
        lo = min(self._dims)
        if lo >= 0:
            return f"GradedVS{self.as_tuple(0)}"
        return f"GradedVS({dict(sorted(self._dims.items()))})"


class GradedMap:
    """A degreewise linear map between graded vector spaces.

    Blocks are stored only where nonzero; `block(j)` materializes the zero
    matrix of the right shape otherwise.
    """

    __slots__ = ("source", "target", "_blocks")

    def __init__(self, source: GradedVS, target: GradedVS,
                 blocks: Mapping[int, MatrixQ] | None = None):
        self.source = source
        self.target = target
        b = {}
        for j, m in (blocks or {}).items():
            if (m.rows, m.cols) != (target[j], source[j]):
                raise DimensionMismatch(
                    f"block in degree {j} is {m.rows}x{m.cols}, expected "
                    f"{target[j]}x{source[j]}")
            if not m.is_zero():
                b[int(j)] = m
        self._blocks = b

    def block(self, j: int) -> MatrixQ:
        return self._blocks.get(j, MatrixQ(self.target[j], self.source[j]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, GradedMap)
                and self.source == other.source
                and self.target == other.target
                and all(self.block(j) == other.block(j)
                        for j in set(self._blocks) | set(other._blocks)))

    __hash__ = None

    def __repr__(self) -> str:
        return f"GradedMap({self.source!r} -> {self.target!r})"


def cleared_lows(degrees: Iterable[int], differential: Callable[[int], MatrixQ]
                 ) -> dict[int, dict[int, int]]:
    """The lows {column: low row} (`column_lows`) of d_j for each j in
    `degrees`, reduced top-down with clearing (Chen-Kerber 2011); d_j is
    built by `differential(j)` only when degree j is reduced.

    Clearing: the columns of d_j at the lows of d_{j+1} are skipped.  The
    rows of d_{j+1} index the columns of d_j, and d_j d_{j+1} = 0.  Every
    low of d_{j+1} indexes a column of d_j that lies in the span of the
    earlier columns of d_j: the reduced column R of d_{j+1} with low l is a
    boundary, so d_j R = 0, and R has a nonzero entry at l and none below
    it, which writes column l of d_j as a combination of columns < l.  So
    that column reduces to zero and skipping it changes no low of d_j: the
    lows are those of the plain reduction, rank d_j of them.
    """
    lows: dict[int, dict[int, int]] = {}
    for j in sorted(degrees, reverse=True):
        above = lows.get(j + 1, {})
        lows[j] = column_lows(differential(j), set(above.values()))
    return lows


class ChainComplex:
    """A chain complex of finite-dimensional rational vector spaces.

    `differentials[j]` is the matrix of d_j : C_j -> C_{j-1}.  Every
    construction checks the shapes and d_{j-1} o d_j = 0 for each pair of
    adjacent differentials (an exact product, in `int` on simplicial
    complexes); a violating complex cannot be built.
    """

    __slots__ = ("spaces", "differentials", "_lows")

    def __init__(self, spaces: GradedVS,
                 differentials: Mapping[int, MatrixQ] | None = None):
        self.spaces = spaces
        diffs = {}
        for j, m in (differentials or {}).items():
            if (m.rows, m.cols) != (spaces[j - 1], spaces[j]):
                raise DimensionMismatch(
                    f"differential in degree {j} is {m.rows}x{m.cols}, "
                    f"expected {spaces[j - 1]}x{spaces[j]}")
            if not m.is_zero():
                diffs[int(j)] = m
        for j, m in diffs.items():
            prev = diffs.get(j - 1)
            if prev is not None and not (prev @ m).is_zero():
                raise ValueError(f"d_{j-1} o d_{j} != 0")
        self.differentials = diffs
        self._lows = None

    def differential(self, j: int) -> MatrixQ:
        return self.differentials.get(
            j, MatrixQ(self.spaces[j - 1], self.spaces[j]))

    def homology(self) -> GradedVS:
        """Betti numbers by rank: dim H_j = n_j - rank d_j - rank d_{j+1},
        rank d_j the number of lows of d_j in `cleared_lows`.  The lows are
        memoized; `homology_data` reads them."""
        if self._lows is None:
            self._lows = cleared_lows(self.differentials,
                                      self.differentials.__getitem__)
        r = {j: len(lows) for j, lows in self._lows.items()}
        return GradedVS({j: self.spaces[j] - r.get(j, 0) - r.get(j + 1, 0)
                         for j in self.spaces.degrees()})

    def homology_data(self) -> "HomologyData":
        """Betti numbers plus representative cycles, for `induced_map`."""
        betti = self.homology()
        reps = {}
        for j in betti.degrees():
            chosen = cycle_representatives(self.differential(j),
                                           self._lows.get(j + 1, {}))
            assert len(chosen) == betti[j]
            reps[j] = MatrixQ(self.spaces[j], betti[j],
                              {(i, col): v for col, vec in enumerate(chosen)
                               for i, v in vec.items()})
        return HomologyData(complex=self, betti=betti, representatives=reps)

    def __repr__(self) -> str:
        return f"ChainComplex({self.spaces!r})"


class HomologyData(NamedTuple):
    """Homology of a complex plus enough data to map into it.

    `representatives[j]` is a matrix whose columns are cycles whose classes
    form a basis of H_j.  `class_coordinates` projects any cycle to its
    homology class, which is how induced maps on homology are computed.
    """

    complex: ChainComplex
    betti: GradedVS
    representatives: dict[int, MatrixQ]

    def class_coordinates(self, j: int, cycle: Mapping[int, Fraction]) -> dict:
        """Coordinates of the class of `cycle` in the degree-j basis.

        The representatives are independent modulo im d_{j+1}, so their
        coefficients in any solution of [reps | d_{j+1}] x = cycle are unique.
        """
        reps = self.representatives.get(j)
        if reps is None:
            return {}
        x = solve(hstack([reps, self.complex.differential(j + 1)]), cycle)
        if x is None:
            raise ValueError("vector is not a cycle of this complex")
        return {i: v for i, v in x.items() if i < reps.cols and v}


def cycle_representatives(d_out: MatrixQ,
                          lows_in: Mapping[int, int]) -> list[dict]:
    """Cycles of d_out whose classes form a basis of ker d_out / im d_in,
    given the lows {column: low row} of d_in (`column_lows`).

    Cleared: the cycles that vanish on the set L of the lows.  The reduced
    columns of d_in with a low span im d_in, and the one with low l is
    nonzero at l and zero at every row after l.  Ordered by low, these
    columns restricted to L form a triangular matrix with nonzero diagonal,
    hence an invertible one.  So for every cycle z there is exactly one
    boundary b with (z - b)|_L = 0, and z - b is again a cycle since
    d_out d_in = 0; and a boundary that vanishes on L is zero.  Hence the
    cycles vanishing on L map isomorphically onto ker d_out / im d_in.
    They are the kernel of d_out with the columns in L deleted, padded back
    with zeros, so its kernel basis has dim H vectors and needs no filter.
    """
    cleared = set(lows_in.values())
    keep = [c for c in range(d_out.cols) if c not in cleared]
    return [{keep[k]: x for k, x in v.items()} for v in
            kernel_basis(d_out.submatrix(range(d_out.rows), keep)).basis]


class ChainMap:
    """A degreewise map of chain complexes commuting with the differentials."""

    __slots__ = ("source", "target", "_blocks")

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 blocks: Mapping[int, MatrixQ] | None = None):
        self.source = source
        self.target = target
        b = {}
        for j, m in (blocks or {}).items():
            if (m.rows, m.cols) != (target.spaces[j], source.spaces[j]):
                raise DimensionMismatch(
                    f"chain map block in degree {j} has wrong shape")
            if not m.is_zero():
                b[int(j)] = m
        self._blocks = b
        degs = set(source.spaces.degrees()) | set(target.spaces.degrees())
        for j in degs:
            lhs = target.differential(j) @ self.block(j)
            rhs = self.block(j - 1) @ source.differential(j)
            if lhs != rhs:
                raise ValueError(f"chain map does not commute with d in degree {j}")

    def block(self, j: int) -> MatrixQ:
        return self._blocks.get(
            j, MatrixQ(self.target.spaces[j], self.source.spaces[j]))

    def __repr__(self) -> str:
        return f"ChainMap({self.source!r} -> {self.target!r})"


def induced_map(f: ChainMap) -> GradedMap:
    """The map induced by a chain map on homology, in the chosen bases."""
    hs = f.source.homology_data()
    ht = f.target.homology_data()
    blocks = {}
    for j in hs.betti.degrees():
        bs, bt = hs.betti[j], ht.betti[j]
        if bs == 0 or bt == 0:
            continue
        reps = hs.representatives[j]
        fj = f.block(j)
        entries = {}
        for col in range(bs):
            img = fj @ MatrixQ(fj.cols, 1, {(i, 0): v
                                            for i, v in reps.column(col).items()})
            coords = ht.class_coordinates(j, img.column(0))
            for i, v in coords.items():
                entries[(i, col)] = v
        blocks[j] = MatrixQ(bt, bs, entries)
    return GradedMap(hs.betti, ht.betti, blocks)


def mapping_cone(f: ChainMap) -> ChainComplex:
    """The algebraic mapping cone: cone(f)_j = source_{j-1} (+) target_j.

    Its homology is the reduced homology of the topological mapping cone;
    dimensionwise dim H_j(cone f) = dim coker H_j(f) + dim ker H_{j-1}(f).
    """
    src, tgt = f.source.spaces, f.target.spaces
    degs = set(src.degrees()) | set(tgt.degrees())
    if not degs:
        return ChainComplex(GradedVS())
    lo, hi = min(degs), max(degs) + 1
    spaces = GradedVS({j: src[j - 1] + tgt[j] for j in range(lo, hi + 1)})
    diffs = {}
    for j in range(lo, hi + 1):
        entries = {}
        ds = f.source.differential(j - 1)      # source_{j-1} -> source_{j-2}
        dt = f.target.differential(j)          # target_j -> target_{j-1}
        fj = f.block(j - 1)                    # source_{j-1} -> target_{j-1}
        for (r, c), v in ds.items():
            entries[(r, c)] = -v
        roff = src[j - 2]
        for (r, c), v in fj.items():
            entries[(r + roff, c)] = -v
        coff = src[j - 1]
        for (r, c), v in dt.items():
            entries[(r + roff, c + coff)] = v
        m = MatrixQ(spaces[j - 1], spaces[j], entries)
        if not m.is_zero():
            diffs[j] = m
    return ChainComplex(spaces, diffs)


def tensor_complex(a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """Tensor product with the Koszul-sign differential d(x)1 + (-1)^p 1(x)d.

    Degree-j basis: the layout of `GradedVS.tensor_blocks`.
    """
    adims, bdims = a.spaces, b.spaces
    spaces = adims.convolve(bdims)
    layouts = {j: adims.tensor_blocks(bdims, j) for j in spaces.degrees()}
    offsets = {(j, q): off for j, layout in layouts.items()
               for q, _, _, off in layout}

    def index(j: int, q: int, ia: int, ib: int) -> int:
        return offsets[j, q] + ia * bdims[q] + ib

    diffs = {}
    for j, layout in layouts.items():
        entries = {}
        for q, dp, dq, _ in layout:
            p = j - q
            da = a.differential(p)   # a_p -> a_{p-1}
            for (r, ccol), v in da.items():
                for ib in range(dq):
                    entries[(index(j - 1, q, r, ib),
                             index(j, q, ccol, ib))] = v
            db = b.differential(q)   # b_q -> b_{q-1}
            sign = -1 if p % 2 else 1
            for (r, ccol), v in db.items():
                for ia in range(dp):
                    key = (index(j - 1, q - 1, ia, r), index(j, q, ia, ccol))
                    entries[key] = entries.get(key, 0) + sign * v
        m = MatrixQ(spaces[j - 1], spaces[j], entries)
        if not m.is_zero():
            diffs[j] = m
    return ChainComplex(spaces, diffs)
