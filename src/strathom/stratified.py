"""The algebraic model of a two-strata space and its dimension calculus.

A `TwoStrataSpace` records what the Mayer-Vietoris arguments actually
consume: the graded homology of the link L, of the singular stratum Sigma,
of the regular part M (homotopy equivalent to its compactification Mbar),
and the map induced on homology by restricting Mbar to its boundary collar
L x Sigma.  Everything else - intersection homology of the conifold
transition for any integer perversity, the mixed IG groups, reduced
intersection-space homology, canonical-map ranks between adjacent
perversities, duality and extreme-perversity shortcuts, Hodge weight
conversions - is assembled from that data by exact linear algebra.

Kunneth coordinates.  The boundary homology B_j = H_j(L x Sigma) is the
block sum over t of H_{j-t}(L) (x) H_t(Sigma); blocks are ordered by
ascending Sigma-degree t and inside a block pairs run lexicographically
(L index, Sigma index).  The local restriction maps toward the cone on
Sigma are literal coordinate projections onto the blocks with t below a
cutoff, and the local maps toward the cone replacement of L are projections
onto blocks with L-degree at least the Moore cutoff k.

One map family.  Every Mayer-Vietoris sequence here glues along
beta_j^(a) = (boundary restriction, projection onto t <= a) :
B_j -> H_j(M) (+) I_j^(a), so every dimension is rank arithmetic on the
memoized rank of beta_j^(a), with a = c - 2 - q for IH^q of the conifold
transition and a = j - k for HI in degree j:

    IH^q_j   = coker beta_j^(a) + ker beta_{j-1}^(a)
    gamma    = ker beta_{j-1}^(a) + coker beta_j^(a-1)
    IG^(k)_j = coker beta_j^(a) + ker beta_{j-1}^(a-1)    (a = c - 1 - k)
    HI_j     = coker beta_j^(j-k) + ker beta_{j-1}^(j-1-k)

The reduced degree-0 group of HI fits the same formula; `hi_dims` says why.

All values are immutable; every operation is a pure function, so sweeps
over perversities or degrees can run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .chains import GradedMap, GradedVS, les_third_dims
from .qlinalg import MatrixQ, rank, vstack


class ModelError(ValueError):
    """The supplied homological data cannot come from a two-strata space."""


class InternalInconsistency(RuntimeError):
    """Two provably-equal quantities disagreed; the model data is corrupt."""


@dataclass(frozen=True)
class Perversity:
    """An extended perversity: one integer at the single relevant codimension.

    No Goresky-MacPherson growth conditions; any integer value is legal.
    """

    value: int
    codim: int

    def __post_init__(self):
        if self.codim < 1:
            raise ValueError("codimension must be >= 1")

    def __repr__(self) -> str:
        return f"Perversity(p({self.codim})={self.value})"


@dataclass(frozen=True)
class IGRequest:
    """Which mixed group to compute: IG^(k) in degree j."""

    k: int
    j: int


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
        if l < 0 or s < 0:
            raise ModelError("negative link or stratum dimension")
        if link_h[0] < 1 or sigma_h[0] < 1:
            raise ModelError("link and stratum must be nonempty")
        if link_h.top > l or sigma_h.top > s:
            raise ModelError("homology above the dimension of the space")
        if m_h[0] < 1:
            raise ModelError("regular part must be nonempty")
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

    def blocks(self, j: int) -> list[tuple[int, int, int, int]]:
        """Kunneth block layout of B_j: (t, dim_L, dim_Sigma, offset)."""
        out = []
        off = 0
        for t in range(0, j + 1):
            dl, ds = self.link_h[j - t], self.sigma_h[t]
            if dl and ds:
                out.append((t, dl, ds, off))
                off += dl * ds
        return out

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


def _sigma_projection(space: TwoStrataSpace, j: int, a: int) -> MatrixQ:
    """Coordinate projection of B_j onto the blocks with Sigma-degree <= a."""
    bj = space.boundary_h()[j]
    kept = []
    for t, dl, ds, off in space.blocks(j):
        if t <= a:
            kept.extend(range(off, off + dl * ds))
    return MatrixQ(len(kept), bj,
                   {(r, c): Fraction(1) for r, c in enumerate(kept)})


def _i_dim(space: TwoStrataSpace, j: int, a: int) -> int:
    """dim I_j^(a): the blocks of B_j with Sigma-degree <= a."""
    return sum(dl * ds for t, dl, ds, off in space.blocks(j) if t <= a)


def _rank_beta(space: TwoStrataSpace, j: int, a: int) -> int:
    """rank of beta_j^(a) = (boundary restriction, projection to t <= a),
    memoized.  B_j has blocks only for 0 <= t <= min(s, j), so cutoffs
    outside [-1, min(s, j)] share the entry of the nearest one inside."""
    a = max(-1, min(a, space.s, j))
    cached = space._rank_cache.get((j, a))
    if cached is None:
        cached = rank(vstack([space.boundary_restriction.block(j),
                              _sigma_projection(space, j, a)]))
        space._rank_cache[(j, a)] = cached
    return cached


def _coker(space: TwoStrataSpace, j: int, a: int) -> int:
    """dim coker beta_j^(a), inside H_j(M) (+) I_j^(a)."""
    return space.m_h[j] + _i_dim(space, j, a) - _rank_beta(space, j, a)


def _ker(space: TwoStrataSpace, j: int, a: int) -> int:
    """dim ker beta_j^(a), inside B_j; zero in negative degrees."""
    if j < 0:
        return 0
    return space.boundary_h()[j] - _rank_beta(space, j, a)


def ih_ct_dims(space: TwoStrataSpace, q_at_c: int) -> GradedVS:
    """Intersection homology of the conifold transition, any perversity.

    Mayer-Vietoris over M and the cone neighborhood of the stratum: with
    a = c - 2 - q, IH^q_j = coker beta_j^(a) + ker beta_{j-1}^(a).  For q
    below 0 or at least c-1 the extreme shortcuts (homology of Mbar,
    respectively of the pair) are computed independently and must agree.
    """
    a = space.c - 2 - q_at_c
    result = GradedVS({j: _coker(space, j, a) + _ker(space, j - 1, a)
                       for j in range(0, space.n + 1)})

    if q_at_c < 0:
        shortcut = space.m_h
        if result != shortcut:
            raise InternalInconsistency(
                "negative-perversity intersection homology of the conifold "
                "transition disagrees with H(Mbar); the boundary restriction "
                "is not a valid boundary restriction")
    elif q_at_c >= space.c - 1:
        shortcut = les_third_dims(space.boundary_restriction)
        if result != shortcut:
            raise InternalInconsistency(
                "large-perversity intersection homology of the conifold "
                "transition disagrees with H(Mbar, boundary)")
    return result


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


def ig_dims(space: TwoStrataSpace, req: IGRequest) -> int:
    """Dimension of the mixed group IG^(k)_j of the conifold transition.

    IG is the direct sum of the intersection homologies at the adjacent
    perversities q = k-1 and k modulo the image of the canonical map, so
    dim IG = IH^q_j + IH^{q+1}_j - gamma.  With a = c - 2 - q the ranks
    cancel to IG^(k)_j = coker beta_j^(a) + ker beta_{j-1}^(a-1).
    """
    a = space.c - 1 - req.k
    return _coker(space, req.j, a) + _ker(space, req.j - 1, a - 1)


# ---------------------------------------------------------------------------
# reduced homology of intersection spaces

def hi_dims(space: TwoStrataSpace, p: Perversity) -> GradedVS:
    """Reduced homology of the perversity-p intersection space.

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
    if p.codim != space.codim_sigma:
        raise ModelError(
            f"perversity is at codimension {p.codim}, expected {space.codim_sigma}")
    k = space.l - p.value
    return GradedVS({j: _coker(space, j, j - k) + _ker(space, j - 1, j - 1 - k)
                     for j in range(0, space.n + 1)})


def hi_extreme(space: TwoStrataSpace, p: Perversity) -> GradedVS:
    """Extreme-perversity shortcut for reduced intersection-space homology.

    Negative perversity: homology of the pair (Mbar, boundary), computed
    from the long exact sequence through the boundary restriction.  At or
    above l: homology of Mbar itself.  Always checked against the full
    Mayer-Vietoris assembly.
    """
    if p.codim != space.codim_sigma:
        raise ModelError("perversity at the wrong codimension")
    if p.value < 0:
        result = les_third_dims(space.boundary_restriction)
    elif p.value >= space.l:
        result = space.m_h
    else:
        raise ModelError(
            f"perversity value {p.value} is not extreme for link dimension "
            f"{space.l}")
    full = hi_dims(space, p)
    if full != result:
        raise InternalInconsistency(
            f"extreme shortcut {result!r} disagrees with assembly {full!r}")
    return result


# ---------------------------------------------------------------------------
# conifold transition, compactification, verifiers

def _swap_permutation(space: TwoStrataSpace, j: int) -> MatrixQ:
    """Permutation taking swapped-model B_j coordinates to original ones."""
    fwd = {}
    orig_offsets = {t: off for t, dl, ds, off in space.blocks(j)}
    swapped_off = 0
    total = space.boundary_h()[j]
    for u in range(0, j + 1):  # new Sigma-degree = old L-degree
        dl_new = space.sigma_h[j - u]   # new link = old stratum
        ds_new = space.link_h[u]
        if not (dl_new and ds_new):
            continue
        t_old = j - u
        base = orig_offsets[t_old]
        for i_link_new in range(dl_new):      # old Sigma index
            for i_sigma_new in range(ds_new):  # old L index
                col = swapped_off + i_link_new * ds_new + i_sigma_new
                row = base + i_sigma_new * dl_new + i_link_new
                fwd[(row, col)] = Fraction(1)
        swapped_off += dl_new * ds_new
    return MatrixQ(total, total, fwd)


def conifold_transition(space: TwoStrataSpace) -> TwoStrataSpace:
    """Swap link and stratum; an involution on models.

    The boundary restriction is re-expressed in the swapped Kunneth order
    by a block permutation, so applying the transition twice returns the
    identical model.
    """
    b = space.boundary_h()
    blocks = {}
    for j in b.degrees():
        m = space.boundary_restriction.block(j) @ _swap_permutation(space, j)
        if not m.is_zero():
            blocks[j] = m
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


@dataclass(frozen=True)
class DegreeVerdict:
    j: int
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def verify_theorem_hom(space: TwoStrataSpace, p: Perversity,
                       degrees: range) -> list[DegreeVerdict]:
    """Check reduced HI of X against the mixed groups of its transition:
    dim HI~^p_j(X) = dim IG^(n-1-p-j)_j(CT(X)) for each requested degree.

    The cohomological form of the theorem lands on the same group: the
    cutoff pair (k = l - p, q = j + 1 - k) gives IG^(c-q)_j, and with
    c = n - l that index is n-1-p-j again.
    """
    hi = hi_dims(space, p)
    out = []
    for j in degrees:
        k = space.n - 1 - p.value - j
        out.append(DegreeVerdict(j, hi[j], ig_dims(space, IGRequest(k, j))))
    return out


@dataclass(frozen=True)
class DualityVerdict:
    hi_pairs: list[DegreeVerdict]
    ih_pairs: list[DegreeVerdict]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.hi_pairs) and all(v.ok for v in self.ih_pairs)


def verify_duality(space: TwoStrataSpace, p: Perversity) -> DualityVerdict:
    """Poincare duality sweeps at complementary extended perversities.

    HI: p + q = l - 1 at codimension l + 1, compared across degrees j and
    n - j.  IH of the conifold transition: q + q* = c - 2 at codimension c.
    Requires the model to be flagged as closed oriented.
    """
    if not space.oriented:
        raise ModelError("duality requires a closed oriented model")
    if p.codim != space.codim_sigma:
        raise ModelError("perversity at the wrong codimension")
    q = Perversity(space.l - 1 - p.value, p.codim)
    hi_p = hi_dims(space, p)
    hi_q = hi_dims(space, q)
    hi_pairs = [DegreeVerdict(j, hi_p[j], hi_q[space.n - j])
                for j in range(0, space.n + 1)]
    qv = p.value
    ih_a = ih_ct_dims(space, qv)
    ih_b = ih_ct_dims(space, space.c - 2 - qv)
    ih_pairs = [DegreeVerdict(j, ih_a[j], ih_b[space.n - j])
                for j in range(0, space.n + 1)]
    return DualityVerdict(hi_pairs, ih_pairs)


def hodge_weights(p: Perversity, l: int, n: int, j: int) -> tuple[Fraction, Fraction]:
    """Weights of the extended-harmonic-form model of HI.

    Returns (fibred-scattering weight, fibred-cusp weight): the scattering
    weight is (l-1)/2 - p(l+1) and the conformally related cusp weight adds
    n/2 - j.
    """
    if p.codim != l + 1:
        raise ModelError(f"perversity at codimension {p.codim}, expected {l + 1}")
    c_fs = Fraction(l - 1, 2) - p.value
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


@dataclass(frozen=True)
class SpaceReport:
    """A perversity-sweep table of IH dimensions with map annotations.

    `dims[j]` lists dim IH^q_j for q over `q_values`; `annotations[j]`
    classifies the canonical maps between adjacent columns.
    """

    label: str
    q_values: tuple[int, ...]
    degrees: tuple[int, ...]
    dims: dict[int, tuple[int, ...]] = field(repr=False)
    annotations: dict[int, tuple[str, ...]] = field(repr=False)

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
