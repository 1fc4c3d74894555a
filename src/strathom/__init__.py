"""strathom: exact computation of intersection-space homology, intersection
homology for extended perversities, mixed IG groups and signatures for
two-strata pseudomanifolds with product link bundles.

Everything is computed over the rationals with no floating point; all
public values are immutable and all operations are pure functions.  The
result and request records (`SpaceReport`, `ModeSpec`, `DegreeVerdict`,
...) are `typing.NamedTuple`s: immutable tuples that compare equal to a
plain tuple holding the same fields.  A perversity is a plain `int`, its
value at the one singular stratum.

Import names from their module (`from strathom.qlinalg import MatrixQ`).
Each command runs in a fresh interpreter, so `import strathom` registers
every module in `sys.modules` without running it (`LazyLoader`), and a
module's code runs when one of its attributes is first read.  A verb then
runs only the layers it calls: `hi` runs `qlinalg`, `chains`, `stratified`,
`io` and `cli`; `homology` runs `simplicial` in place of `stratified`.
Registration, not function-local imports, keeps every module object in
place from the start, so a tool that rebinds module attributes from outside
(the span tracer of the benchmark reads `sys.modules["strathom.<layer>"]`)
finds each layer after `import strathom.cli`; reading one loads it.  The
entry point `cli` is imported as usual: registered ahead, it would be run
twice by `python -m strathom.cli`.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _register_lazily(name: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    # as a package attribute, `from . import name` binds it without a load
    globals()[name] = module


for _name in ("catalog", "chains", "io", "modes", "qlinalg", "signatures",
              "simplicial", "spaces", "stratified"):
    _register_lazily(_name)
