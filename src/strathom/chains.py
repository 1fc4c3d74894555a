"""Graded vector spaces, chain complexes and the operations on them.

This module is the homological middle layer: finitely supported graded
dimensions (`GradedVS`), chain complexes with checked square-zero
differentials, Betti numbers by rank, tensor products with Koszul signs
and truncation of graded data.  No basis of a homology group is built
here: `simplicial.cup_pairing` reads its cleared cocycles off
`qlinalg.kernel_basis`, and the one cleared reduction, behind
`betti_numbers` and `ih_direct`, is `simplicial._filtered_lows`.  The
Mayer-Vietoris dimensions downstream are rank arithmetic on the boundary
restriction, in `stratified`; no chain map, induced map or mapping cone
is built anywhere.  `ChainComplex` stays for the complexes a caller
assembles from differentials, such as the Kunneth products of
`tensor_complex`: it checks d o d = 0 and counts Betti numbers by the
`rank` of each differential, a route that shares no clearing with the
triangulation side.

Conventions.  Differentials lower degree: d_j : C_j -> C_{j-1}.  Tensor
bases in degree j follow the one Kunneth layout `GradedVS.tensor_blocks`
states; the stratified module's coordinate projections rely on it.
Degree -1 (and any other absent degree) reads as dimension 0.

All values are immutable after construction; operations are pure.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .qlinalg import DimensionMismatch, MatrixQ, rank


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


class ChainComplex:
    """A chain complex of finite-dimensional rational vector spaces.

    `differentials[j]` is the matrix of d_j : C_j -> C_{j-1}.  Every
    construction checks the shapes and d_{j-1} o d_j = 0 for each pair of
    adjacent differentials (an exact product, in `int` on simplicial
    complexes); a violating complex cannot be built.
    """

    __slots__ = ("spaces", "differentials")

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

    def differential(self, j: int) -> MatrixQ:
        return self.differentials.get(
            j, MatrixQ(self.spaces[j - 1], self.spaces[j]))

    def homology(self) -> GradedVS:
        """Betti numbers by rank: dim H_j = n_j - rank d_j - rank d_{j+1},
        each rank the `rank` of one differential, uncleared."""
        r = {j: rank(m) for j, m in self.differentials.items()}
        return GradedVS({j: self.spaces[j] - r.get(j, 0) - r.get(j + 1, 0)
                         for j in self.spaces.degrees()})

    def __repr__(self) -> str:
        return f"ChainComplex({self.spaces!r})"


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
