"""strathom: exact computation of intersection-space homology, intersection
homology for extended perversities, mixed IG groups and signatures for
two-strata pseudomanifolds with product link bundles.

Everything is computed over the rationals with no floating point; all
public values are immutable and all operations are pure functions.  The
result and request records (`Perversity`, `SpaceReport`, `ModeSpec`, ...)
are `typing.NamedTuple`s: immutable tuples that compare equal to a plain
tuple holding the same fields.
"""

from .chains import (
    ChainComplex,
    ChainMap,
    GradedMap,
    GradedVS,
    induced_map,
    mapping_cone,
    tensor_complex,
)
from .modes import ModeReport, ModeSpec, surface_ext_dims, total_ext_dims
from .qlinalg import (
    MatrixQ,
    Subspace,
    image_basis,
    kernel_basis,
    rank,
    signature_sym,
    sum_dim,
)
from .signatures import (
    SignatureReport,
    WittVerdict,
    novikov_signature,
    verify_theorem_sig,
    witt_check,
)
from .simplicial import (
    OrientedPseudomanifoldWithBoundary,
    PairingData,
    SimplicialComplex,
    StratifiedComplex,
    barycentric_subdivide,
    chain_complex_of,
    cone,
    cup_pairing,
    ih_direct,
    product_complex,
    suspension,
)
from .stratified import (
    IGRequest,
    Perversity,
    SpaceReport,
    TwoStrataSpace,
    check_lefschetz,
    compactify_to_isolated,
    cone_formula,
    conifold_transition,
    gamma_rank,
    hi_dims,
    hodge_weights,
    ig_dims,
    ih_ct_dims,
    ih_space_dims,
    ih_table,
    verify_duality,
    verify_theorem_hom,
)

__version__ = "0.1.0"
