"""Constructors for two-strata space models.

The workhorse is the fold recipe: for a space of the form (suspension of
L) x Sigma0 the compactified regular part is homotopy equivalent to
L x Sigma0 with two boundary copies, and the boundary restriction is the
fold map, identity on each copy.  Isolated-cone models take an explicit
boundary restriction instead.  Random generators for the property suites
live here too, so the tests and the bundled inputs agree on conventions.
"""

from __future__ import annotations

import random

from .chains import GradedMap, GradedVS
from .qlinalg import MatrixQ
from .stratified import TwoStrataSpace


def _fold_blocks(link_h: GradedVS, sigma0_h: GradedVS
                 ) -> tuple[GradedVS, GradedVS, GradedMap]:
    """Kunneth data for Sigma = two copies of Sigma0, the two suspension
    points times Sigma0, with the fold restriction.

    Per degree t the stratum basis lists copy 1's classes, then copy 2's;
    the fold map sends a class of either copy to the matching class of
    Sigma0.  The target H(M) carries the Kunneth basis of L x Sigma0, so
    source and target have a block at the same Sigma-degrees.
    """
    sigma_h = GradedVS({t: 2 * sigma0_h[t] for t in sigma0_h.degrees()})
    m_h = link_h.convolve(sigma0_h)
    b_h = link_h.convolve(sigma_h)
    blocks = {}
    for j in b_h.degrees():
        entries = {}
        for (_, dl, ds, src_off), (_, _, ds0, tgt_off) in zip(
                link_h.tensor_blocks(sigma_h, j),
                link_h.tensor_blocks(sigma0_h, j)):
            for il in range(dl):
                for isig in range(ds):
                    entries[(tgt_off + il * ds0 + isig % ds0,
                             src_off + il * ds + isig)] = 1
        blocks[j] = MatrixQ(m_h[j], b_h[j], entries)
    return sigma_h, m_h, GradedMap(b_h, m_h, blocks)


def suspension_product_space(link_betti, sigma0_betti, oriented=True,
                             label="") -> TwoStrataSpace:
    """Model of X = S(L) x Sigma0: stratum = two copies of Sigma0, link L."""
    link_h = GradedVS(list(link_betti))
    sigma0_h = GradedVS(list(sigma0_betti))
    l = link_h.top
    s = sigma0_h.top
    n = l + s + 1
    sigma_h, m_h, fold = _fold_blocks(link_h, sigma0_h)
    return TwoStrataSpace(n=n, l=l, s=s, link_h=link_h, sigma_h=sigma_h,
                          m_h=m_h, boundary_restriction=fold,
                          oriented=oriented, label=label)


def isolated_cone_space(link_betti, m_betti, beta_blocks,
                        oriented=True, label="") -> TwoStrataSpace:
    """Model with Sigma a point: link L, explicit boundary restriction.

    `beta_blocks` maps degree -> matrix data (MatrixQ or row lists) of
    H_j(L) -> H_j(M).
    """
    link_h = GradedVS(list(link_betti))
    m_h = GradedVS(list(m_betti))
    l = link_h.top
    blocks = {}
    for j, m in beta_blocks.items():
        blocks[int(j)] = m if isinstance(m, MatrixQ) else MatrixQ.from_rows(m)
    return TwoStrataSpace(
        n=l + 1, l=l, s=0, link_h=link_h, sigma_h=GradedVS([1]), m_h=m_h,
        boundary_restriction=GradedMap(link_h, m_h, blocks),
        oriented=oriented, label=label)


def s2xt2_space() -> TwoStrataSpace:
    """The running example: S^2 x T^2 with Sigma = two tori, link a circle."""
    return suspension_product_space([1, 1], [1, 2, 1], label="S2xT2")


def pinched_torus_space() -> TwoStrataSpace:
    """The nodal cubic curve: a torus with one meridian collapsed.

    Link of the singular point: two circles; regular part a cylinder.
    """
    return isolated_cone_space(
        link_betti=[2, 2], m_betti=[1, 1],
        beta_blocks={0: [[1, 1]], 1: [[1, 1]]},
        label="pinched-torus")


def cp2_point_space() -> TwoStrataSpace:
    """The complex projective plane with one marked point as stratum.

    Link S^3, regular part the complement of a ball.
    """
    return isolated_cone_space(
        link_betti=[1, 0, 0, 1], m_betti=[1, 0, 1, 0],
        beta_blocks={0: [[1]]},
        label="CP2-point")


def torus_link_space() -> TwoStrataSpace:
    """A Witt-failing space: S(T^2) x S^1, link a torus."""
    return suspension_product_space([1, 2, 1], [1, 1], label="ST2xS1")


def sphere_product_betti(rng: random.Random, dim: int) -> list[int]:
    """Betti vector of a random product of spheres of total dimension dim."""
    betti = GradedVS([1])
    remaining = dim
    while remaining > 0:
        d = rng.randrange(1, remaining + 1)
        betti = betti.convolve(GradedVS({0: 1, d: 1}))
        remaining -= d
    return list(betti.as_tuple(0))


def random_orientable_space(rng: random.Random, n_max: int = 6) -> TwoStrataSpace:
    """A random sphere-product suspension model; genuinely realizable, so
    Poincare duality and the theorem sweeps must hold on it."""
    n = rng.randrange(2, n_max + 1)
    l = rng.randrange(1, n)
    s = n - 1 - l
    link = sphere_product_betti(rng, l)
    sigma0 = sphere_product_betti(rng, s)
    return suspension_product_space(link, sigma0, label=f"rand-or-{n}-{l}")


def random_algebraic_space(rng: random.Random, n_max: int = 6,
                           b_max: int = 4) -> TwoStrataSpace:
    """A random homology-level model with arbitrary boundary restriction.

    The degree-0 block sends components to components; higher blocks are
    arbitrary small integer matrices.  Not necessarily realizable as a
    space, but the Mayer-Vietoris dimension identities hold formally, which
    is exactly what the theorem-sweep property tests exercise.
    """
    n = rng.randrange(2, n_max + 1)
    l = rng.randrange(1, n)
    s = n - 1 - l
    link = [rng.randrange(1, b_max + 1)] + \
        [rng.randrange(0, b_max + 1) for _ in range(l)]
    sigma = [rng.randrange(1, b_max + 1)] + \
        [rng.randrange(0, b_max + 1) for _ in range(s)]
    m = [rng.randrange(1, b_max + 1)] + \
        [rng.randrange(0, b_max + 1) for _ in range(n - 1)]
    link_h, sigma_h, m_h = GradedVS(link), GradedVS(sigma), GradedVS(m)
    b_h = link_h.convolve(sigma_h)
    blocks = {}
    for j in b_h.degrees():
        rows, cols = m_h[j], b_h[j]
        if cols == 0:
            continue
        entries = {}
        if j == 0:
            for col in range(cols):
                entries[(rng.randrange(rows), col)] = 1
        else:
            if rows == 0:
                continue
            for col in range(cols):
                for row in range(rows):
                    v = rng.choice([0, 0, 0, 1, -1, 2])
                    if v:
                        entries[(row, col)] = v
        if entries:
            blocks[j] = MatrixQ(rows, cols, entries)
    return TwoStrataSpace(n=n, l=l, s=s, link_h=link_h, sigma_h=sigma_h,
                          m_h=m_h,
                          boundary_restriction=GradedMap(b_h, m_h, blocks),
                          oriented=False, label=f"rand-alg-{n}-{l}")
