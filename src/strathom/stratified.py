"""The algebraic model of a two-strata space and its dimension calculus.

A `TwoStrataSpace` records what the Mayer-Vietoris arguments actually
consume: the graded homology of the link L, of the singular stratum Sigma,
of the regular part M (homotopy equivalent to its compactification Mbar),
and the map induced on homology by restricting Mbar to its boundary collar
L x Sigma.  Everything else - intersection homology of the conifold
transition for any integer perversity, the mixed IG groups, reduced
intersection-space homology, canonical-map ranks between adjacent
perversities, duality, Hodge weight conversions - is assembled from
that data by exact linear algebra.

Kunneth coordinates.  The boundary homology B_j = H_j(L x Sigma) is the
block sum over t of H_{j-t}(L) (x) H_t(Sigma), in the layout that
`link_h.tensor_blocks(sigma_h, j)` states: blocks by ascending Sigma-degree
t, pairs (L index, Sigma index) lexicographic inside a block.  The local
restriction maps toward the cone on Sigma are literal coordinate
projections onto the blocks with t below a cutoff, and the local maps
toward the cone replacement of L are projections onto blocks with L-degree
at least the Moore cutoff k.

One map family.  Every Mayer-Vietoris sequence here glues along
beta_j^(a) = (boundary restriction, projection onto t <= a) :
B_j -> H_j(M) (+) I_j^(a).  The projection is an identity on the blocks
with t <= a, so

    rank beta_j^(a) = dim I_j^(a) + rank(beta_j on the blocks with t > a),

and with r that tail rank, coker beta_j^(a) = dim H_j(M) - r and
ker beta_j^(a) = dim(blocks with t > a) - r.  Every dimension is rank
arithmetic on the memoized tail rank, with a = c - 2 - q for IH^q of the
conifold transition and a = j - k for HI in degree j:

    IH^q_j   = coker beta_j^(a) + ker beta_{j-1}^(a)
    gamma    = ker beta_{j-1}^(a) + coker beta_j^(a-1)
    IG^(k)_j = coker beta_j^(a) + ker beta_{j-1}^(a-1)    (a = c - 1 - k)
    HI_j     = coker beta_j^(j-k) + ker beta_{j-1}^(j-1-k)

The reduced degree-0 group of HI fits the same formula; `hi_dims` says why.

A perversity is one integer: with one singular stratum, only its value
there matters, p(l + 1) for X and q(c) for the conifold transition.  Every
function here takes that integer; the codimension is read off the space.

All values are immutable; every operation is a pure function, so sweeps
over perversities or degrees can run in parallel.  The records
(`DegreeVerdict`, `DualityVerdict`, `SpaceReport`) are
`typing.NamedTuple`s: immutable tuples that compare equal to a plain tuple
holding the same fields.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .chains import GradedMap, GradedVS
from .qlinalg import rank


class ModelError(ValueError):
    """The supplied homological data cannot come from a two-strata space."""


def middle_perversities(codim: int) -> tuple[int, int]:
    """Lower and upper middle perversity values at a codimension."""
    return ((codim - 2) // 2, -((2 - codim) // 2))


class TwoStrataSpace:
    """Homology-level model of a two-strata pseudomanifold with product link.

    Fields: total dimension n, link dimension l, stratum dimension s with
    n = l + s + 1; graded homology of link, stratum and regular part; and
    the boundary restriction H_*(L x Sigma) -> H_*(M) in the Kunneth
    coordinates described in the module docstring.
    """

    __slots__ = ("n", "l", "s", "link_h", "sigma_h", "m_h",
                 "boundary_restriction", "oriented", "label", "_rank_cache")

    def __init__(self, n: int, l: int, s: int, link_h: GradedVS,
                 sigma_h: GradedVS, m_h: GradedVS,
                 boundary_restriction: GradedMap,
                 oriented: bool = True, label: str = ""):
        if n != l + s + 1:
            raise ModelError(f"n = {n} but l + s + 1 = {l + s + 1}")
        for name, dim, field, h in (("l", l, "link_betti", link_h),
                                    ("s", s, "sigma_betti", sigma_h)):
            if dim < 0:
                raise ModelError(f"{name}: negative dimension {dim}")
            if h[0] < 1:
                raise ModelError(f"{field}: must be nonempty (b_0 >= 1)")
            if h.top > dim:
                raise ModelError(f"{field}: homology in degree {h.top}, above "
                                 f"the dimension {name} = {dim}")
        if m_h[0] < 1:
            raise ModelError("regular part must be nonempty")
        if m_h.top > n:
            raise ModelError(f"m_betti: homology of the regular part in degree "
                             f"{m_h.top}, above the dimension n = {n}")
        b = link_h.convolve(sigma_h)
        if boundary_restriction.source != b:
            raise ModelError(
                "boundary restriction source does not match the Kunneth "
                f"dimensions of H(L) (x) H(Sigma): {boundary_restriction.source!r}"
                f" vs {b!r}")
        if boundary_restriction.target != m_h:
            raise ModelError("boundary restriction target is not H(M)")
        # degree 0 must commute with augmentations: components map to
        # components, so every column sum is 1
        b0 = boundary_restriction.block(0)
        for jcol in range(b0.cols):
            if sum(b0.column(jcol).values()) != 1:
                raise ModelError(
                    "boundary restriction is not augmentation-compatible in "
                    f"degree 0 (column {jcol} does not sum to 1)")
        self.n = n
        self.l = l
        self.s = s
        self.link_h = link_h
        self.sigma_h = sigma_h
        self.m_h = m_h
        self.boundary_restriction = boundary_restriction
        self.oriented = oriented
        self.label = label
        self._rank_cache: dict = {}

    @property
    def c(self) -> int:
        """Codimension of the singular stratum of the conifold transition."""
        return self.n - self.l

    @property
    def codim_sigma(self) -> int:
        """Codimension of Sigma in the space itself."""
        return self.l + 1

    def boundary_h(self) -> GradedVS:
        return self.link_h.convolve(self.sigma_h)

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return (f"TwoStrataSpace(n={self.n}, l={self.l}, s={self.s}{tag})")

    def __eq__(self, other) -> bool:
        return (isinstance(other, TwoStrataSpace)
                and (self.n, self.l, self.s) == (other.n, other.l, other.s)
                and self.link_h == other.link_h
                and self.sigma_h == other.sigma_h
                and self.m_h == other.m_h
                and self.boundary_restriction == other.boundary_restriction
                and self.oriented == other.oriented)

    __hash__ = None


def cone_formula(link_h: GradedVS, link_dim: int, p_at: int) -> GradedVS:
    """Intersection homology of the open cone on an unstratified link.

    Keeps the link homology strictly below degree link_dim - p_at and kills
    everything at or above, in every degree including 0.
    """
    return link_h.truncate_le(link_dim - p_at - 1)


def _tail(space: TwoStrataSpace, j: int, a: int) -> range:
    """Columns of B_j in the blocks with Sigma-degree t > a; the blocks
    ascend in t, so they are the last columns."""
    head = total = 0
    for t, dl, ds, off in space.link_h.tensor_blocks(space.sigma_h, j):
        total = off + dl * ds
        if t <= a:
            head = total
    return range(head, total)


def _rank_beta(space: TwoStrataSpace, j: int, a: int) -> int:
    """rank of the boundary restriction on the blocks with t > a, memoized.
    B_j has blocks only for 0 <= t <= min(s, j), so cutoffs outside
    [-1, min(s, j)] share the entry of the nearest one inside."""
    a = max(-1, min(a, space.s, j))
    cached = space._rank_cache.get((j, a))
    if cached is None:
        block = space.boundary_restriction.block(j)
        cached = rank(block.submatrix(range(block.rows), _tail(space, j, a)))
        space._rank_cache[(j, a)] = cached
    return cached


def _coker(space: TwoStrataSpace, j: int, a: int) -> int:
    """dim coker beta_j^(a), inside H_j(M) (+) I_j^(a)."""
    return space.m_h[j] - _rank_beta(space, j, a)


def _ker(space: TwoStrataSpace, j: int, a: int) -> int:
    """dim ker beta_j^(a), inside B_j; zero in negative degrees."""
    if j < 0:
        return 0
    return len(_tail(space, j, a)) - _rank_beta(space, j, a)


def ih_ct_dims(space: TwoStrataSpace, q_at_c: int) -> GradedVS:
    """Intersection homology of the conifold transition, any perversity.

    Mayer-Vietoris over M and the cone neighborhood of the stratum: with
    a = c - 2 - q, IH^q_j = coker beta_j^(a) + ker beta_{j-1}^(a).  For q
    below 0 the tail is empty and this is H(Mbar); for q at least c-1 it is
    the whole block and this is H(Mbar, boundary).  The tests compare both
    extremes with a long-exact-sequence reference (`tests/oracles.py`).
    """
    a = space.c - 2 - q_at_c
    return GradedVS({j: _coker(space, j, a) + _ker(space, j - 1, a)
                     for j in range(0, space.n + 1)})


def gamma_rank(space: TwoStrataSpace, q_at_c: int, j: int) -> int:
    """Rank of the canonical map IH^q_j(CT(X)) -> IH^{q+1}_j(CT(X)).

    Follows the snake-lemma bookkeeping, with a = c - 2 - q: the canonical
    map is injective on the kernel part ker beta_{j-1}^(a) of IH^q_j, and
    its kernel is the kernel of the map induced between the cokernels of
    beta_j^(a) and beta_j^(a-1) by F = id (+) local projection.  That map
    has rank rank [F | beta_j^(a-1)] - rank beta_j^(a-1), and F, an
    identity beside a coordinate projection, has full row rank, so the
    rank is coker beta_j^(a-1).  Hence
    gamma = ker beta_{j-1}^(a) + coker beta_j^(a-1).
    """
    a = space.c - 2 - q_at_c
    return _ker(space, j - 1, a) + _coker(space, j, a - 1)


def ig_dims(space: TwoStrataSpace, k: int, j: int) -> int:
    """Dimension of the mixed group IG^(k)_j of the conifold transition.

    IG is the direct sum of the intersection homologies at the adjacent
    perversities q = k-1 and k modulo the image of the canonical map, so
    dim IG = IH^q_j + IH^{q+1}_j - gamma.  With a = c - 2 - q the ranks
    cancel to IG^(k)_j = coker beta_j^(a) + ker beta_{j-1}^(a-1).
    """
    a = space.c - 1 - k
    return _coker(space, j, a) + _ker(space, j - 1, a - 1)


# ---------------------------------------------------------------------------
# reduced homology of intersection spaces

def hi_dims(space: TwoStrataSpace, p: int) -> GradedVS:
    """Reduced homology of the intersection space of perversity p = p(l+1).

    Any integer p is legal: no Goresky-MacPherson growth conditions.

    Mayer-Vietoris over the regular part and the cone on the Moore
    replacement of the link times the stratum, with Moore cutoff k = l - p.
    In degree j >= 1 the local map keeps the blocks of L-degree >= k, that
    is Sigma-degree <= j - k, so it is beta_j^(j-k) and
    HI_j = coker beta_j^(j-k) + ker beta_{j-1}^(j-1-k).

    Degree 0 reads the same ranks, with HI_0 = coker beta_0^(-k).  The
    local group is I_0^(-k) plus one point: for k <= 0 the replacement is
    the boundary beside a disjoint point and the local map, an inclusion,
    is injective like beta_0^(0); for k >= 1 it is the augmentation to the
    cone point, the sum of the rows of the boundary restriction (whose
    columns sum to 1), so the rank is that of beta_0^(-1).  Reduced
    homology restricts to the augmentation kernel of B_0, which holds the
    kernel of the map and so lowers the rank by one, and counts inside a
    target two dimensions smaller; the extra point accounts for the rest.
    """
    k = space.l - p
    return GradedVS({j: _coker(space, j, j - k) + _ker(space, j - 1, j - 1 - k)
                     for j in range(0, space.n + 1)})


def check_lefschetz(space: TwoStrataSpace) -> None:
    """Poincare-Lefschetz duality of the regular part, checked degreewise.

    A model flagged oriented has Mbar a compact oriented n-manifold with
    boundary L x Sigma, so dim H_j(M) = dim H_{n-j}(Mbar, boundary) for
    every j, and the pair reads coker beta_{n-j} + ker beta_{n-j-1} on the
    full tails (a = -1).  Summed over degrees it gives "half lives, half
    dies": rank beta = dim H(L x Sigma) / 2.  It is independent of the
    assembly formulas, but it reads only ranks, so a wrong matrix whose
    ranks are dual passes, and it says nothing about a model flagged not
    oriented.  Raises ModelError naming beta_T on a violation.
    """
    n = space.n
    for j in range(0, n + 1):
        pair = _coker(space, n - j, -1) + _ker(space, n - j - 1, -1)
        if pair != space.m_h[j]:
            raise ModelError(
                f"beta_T: Poincare-Lefschetz duality fails in degree {j}: "
                f"dim H_{j}(M) = {space.m_h[j]} but beta_T gives "
                f"dim H_{n - j}(Mbar, boundary) = {pair}")


# ---------------------------------------------------------------------------
# conifold transition, compactification, verifiers

def _swapped_columns(space: TwoStrataSpace, j: int) -> list[int]:
    """The B_j coordinate of each swapped-model coordinate, in swapped order.

    The swapped block of Sigma-degree u is the original block of
    Sigma-degree j - u, read with (Sigma index, L index) as the pair.
    """
    original = {t: off for t, _, _, off
                in space.link_h.tensor_blocks(space.sigma_h, j)}
    return [original[j - u] + i_l * ds + i_s
            for u, ds, dl, _ in space.sigma_h.tensor_blocks(space.link_h, j)
            for i_s in range(ds) for i_l in range(dl)]


def conifold_transition(space: TwoStrataSpace) -> TwoStrataSpace:
    """Swap link and stratum; an involution on models.

    The boundary restriction is re-expressed in the swapped Kunneth order
    by a column reordering, so applying the transition twice returns the
    identical model.
    """
    b = space.boundary_h()
    blocks = {}
    for j in b.degrees():
        block = space.boundary_restriction.block(j)
        order = _swapped_columns(space, j)
        blocks[j] = block.submatrix(range(block.rows), order)
    if space.label.startswith("CT(") and space.label.endswith(")"):
        label = space.label[3:-1]
    elif space.label:
        label = f"CT({space.label})"
    else:
        label = ""
    return TwoStrataSpace(
        n=space.n, l=space.s, s=space.l,
        link_h=space.sigma_h, sigma_h=space.link_h, m_h=space.m_h,
        boundary_restriction=GradedMap(b, space.m_h, blocks),
        oriented=space.oriented, label=label)


def ih_space_dims(space: TwoStrataSpace, p_at_codim_sigma: int) -> GradedVS:
    """Intersection homology of the space X itself (not its transition).

    Uses the involution: IH of X equals IH of the conifold transition of
    the swapped model.
    """
    return ih_ct_dims(conifold_transition(space), p_at_codim_sigma)


def compactify_to_isolated(space: TwoStrataSpace) -> TwoStrataSpace:
    """Model of the one-point compactification of the regular part.

    The new link is the whole boundary L x Sigma (with its Kunneth homology
    as the new link homology), the stratum is a point, and the boundary
    restriction matrices carry over bodily because the Kunneth coordinates
    of (L x Sigma) x point coincide with those of L x Sigma.
    """
    b = space.boundary_h()
    blocks = {j: space.boundary_restriction.block(j) for j in b.degrees()}
    return TwoStrataSpace(
        n=space.n, l=space.n - 1, s=0,
        link_h=b, sigma_h=GradedVS([1]), m_h=space.m_h,
        boundary_restriction=GradedMap(b, space.m_h, blocks),
        oriented=space.oriented,
        label=f"Z({space.label})" if space.label else "")


class DegreeVerdict(NamedTuple):
    j: int
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def verify_theorem_hom(space: TwoStrataSpace, p: int,
                       degrees: range) -> list[DegreeVerdict]:
    """Check reduced HI of X against the mixed groups of its transition:
    dim HI~^p_j(X) = dim IG^(n-1-p-j)_j(CT(X)) for each requested degree.

    Not an independent check.  With k = l - p, HI_j reads
    coker beta_j^(j-k) + ker beta_{j-1}^(j-1-k); IG^(n-1-p-j)_j has
    a = c - 1 - (n-1-p-j) = j - k, so it reads the same two terms of the
    same memoized rank family.  The verdict cannot fail on any model and
    guards only the bookkeeping of this module.

    The cohomological form of the theorem lands on the same group: the
    cutoff pair (k = l - p, q = j + 1 - k) gives IG^(c-q)_j, and with
    c = n - l that index is n-1-p-j again.
    """
    hi = hi_dims(space, p)
    return [DegreeVerdict(j, hi[j], ig_dims(space, space.n - 1 - p - j, j))
            for j in degrees]


class DualityVerdict(NamedTuple):
    hi_pairs: list[DegreeVerdict]
    ih_pairs: list[DegreeVerdict]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.hi_pairs) and all(v.ok for v in self.ih_pairs)


def verify_duality(space: TwoStrataSpace, p: int) -> DualityVerdict:
    """Poincare duality sweeps at complementary extended perversities.

    HI: p + q = l - 1 at codimension l + 1, compared across degrees j and
    n - j.  IH of the conifold transition at q = p: q + q* = c - 2 at
    codimension c.  Requires the model to be flagged as closed oriented.
    """
    if not space.oriented:
        raise ModelError("duality requires a closed oriented model")
    hi_p = hi_dims(space, p)
    hi_q = hi_dims(space, space.l - 1 - p)
    hi_pairs = [DegreeVerdict(j, hi_p[j], hi_q[space.n - j])
                for j in range(0, space.n + 1)]
    ih_a = ih_ct_dims(space, p)
    ih_b = ih_ct_dims(space, space.c - 2 - p)
    ih_pairs = [DegreeVerdict(j, ih_a[j], ih_b[space.n - j])
                for j in range(0, space.n + 1)]
    return DualityVerdict(hi_pairs, ih_pairs)


def hodge_weights(p: int, l: int, n: int, j: int) -> tuple[Fraction, Fraction]:
    """Weights of the extended-harmonic-form model of HI.

    Returns (fibred-scattering weight, fibred-cusp weight): the scattering
    weight is (l-1)/2 - p(l+1) and the conformally related cusp weight adds
    n/2 - j.
    """
    c_fs = Fraction(l - 1, 2) - p
    c_fc = Fraction(n, 2) - j + c_fs
    return c_fs, c_fc


# ---------------------------------------------------------------------------
# perversity tables

ANNOTATION_ISO = "iso"
ANNOTATION_ZERO = "zero"
ANNOTATION_ONTO = "onto"
ANNOTATION_INJ = "inj"
ANNOTATION_NONE = "map"


def annotate(dim_from: int, dim_to: int, r: int) -> str:
    """Classify a map from its rank: iso beats zero beats onto beats inj."""
    if r == dim_from == dim_to:
        return ANNOTATION_ISO
    if r == 0:
        return ANNOTATION_ZERO
    if r == dim_to:
        return ANNOTATION_ONTO
    if r == dim_from:
        return ANNOTATION_INJ
    return ANNOTATION_NONE


class SpaceReport(NamedTuple):
    """A perversity-sweep table of IH dimensions with map annotations.

    `dims[j]` lists dim IH^q_j for q over `q_values`; `annotations[j]`
    classifies the canonical maps between adjacent columns.
    """

    label: str
    q_values: tuple[int, ...]
    degrees: tuple[int, ...]
    dims: dict[int, tuple[int, ...]]
    annotations: dict[int, tuple[str, ...]]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "q_values": list(self.q_values),
            "degrees": list(self.degrees),
            "dims": {str(j): list(v) for j, v in self.dims.items()},
            "annotations": {str(j): list(v) for j, v in self.annotations.items()},
        }

    def render(self) -> str:
        width = max(5, max(len(str(q)) for q in self.q_values) + 1)
        awidth = 4
        if len(self.q_values) > 1:
            awidth = max(len(a) for row in self.annotations.values() for a in row)
        header = "j \\ q |"
        for i, q in enumerate(self.q_values):
            if i:
                header += " " + "-".center(awidth) + " "
            header += str(q).rjust(width)
        lines = [header, "-" * len(header)]
        for j in self.degrees:
            row = f"{j:5d} |"
            for i, d in enumerate(self.dims[j]):
                if i:
                    row += " " + self.annotations[j][i - 1].center(awidth) + " "
                row += str(d).rjust(width)
            lines.append(row)
        return "\n".join(lines)


def ih_table(space: TwoStrataSpace, q_lo: int, q_hi: int) -> SpaceReport:
    """IH^q_j(CT(X)) over q in [q_lo, q_hi] with adjacent-map annotations."""
    if q_hi < q_lo:
        raise ValueError("empty perversity range")
    qs = tuple(range(q_lo, q_hi + 1))
    degrees = tuple(range(0, space.n + 1))
    cols = {q: ih_ct_dims(space, q) for q in qs}
    dims = {j: tuple(cols[q][j] for q in qs) for j in degrees}
    annotations = {}
    for j in degrees:
        anns = []
        for q in qs[:-1]:
            r = gamma_rank(space, q, j)
            anns.append(annotate(cols[q][j], cols[q + 1][j], r))
        annotations[j] = tuple(anns)
    return SpaceReport(label=space.label, q_values=qs, degrees=degrees,
                       dims=dims, annotations=annotations)
