"""Command-line front end: `strathom [--json] VERB [INPUT] [--flag value
| --flag=value ...]`.  One table, `_VERBS`, holds each verb's handler,
help line, input file and flags (converter, required mark, default);
`parse_args` and `--help` read it.  Every handler ends in `_emit`, the one
report path: a human-readable table or, with --json, a machine-readable
report carrying the same numbers plus a provenance block.  `_emit` writes
the command from the parsed verb, the inputs (with their hashes) from
`input` and `pairing`, and the exit code from the verdict.  Exit codes: 0
success, 1 a verification verdict failed, 2 bad input (a malformed command
line or field, a flag the verb does not read, or a model that fails a load
check such as Poincare-Lefschetz duality), 3 an internal error (any other
exception: a fault of the program, reported on one stderr line without a
traceback)."""

from __future__ import annotations

import gc
import hashlib
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from . import io as sio
from . import modes, signatures, simplicial, stratified

_RANGE = re.compile(r"(-?\d+)\.\.(-?\d+)")


def parse_range(text: str) -> range:
    m = _RANGE.fullmatch(text)
    if not m:
        raise sio.InputError(f"bad range {text!r}; expected a..b")
    lo, hi = int(m.group(1)), int(m.group(2))
    if hi < lo:
        raise sio.InputError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _values(single, rng, flag: str, range_flag: str) -> list[int]:
    if single is not None and rng is not None:
        raise sio.InputError(f"give either --{flag} or --{range_flag}, not both")
    if single is not None:
        return [single]
    if rng is not None:
        return list(parse_range(rng))
    raise sio.InputError(f"missing --{flag} or --{range_flag}")


def _degrees(degree, degrees, n: int) -> list[int]:
    """Degrees picked by --degree or --degrees; 0..n when neither is given."""
    if degree is None and degrees is None:
        return list(range(0, n + 1))
    return _values(degree, degrees, "degree", "degrees")


def _load_space(path: str):
    return sio.load_space(sio.load_json(path), where=str(path),
                          base=Path(path).parent)


def _emit(args, options: dict, result: dict, text: str, ok=True) -> int:
    """Write the report and return the exit code: 0 when the verdict `ok`
    holds, 1 when it fails.  Under --json the report names the parsed verb
    as its command, lists `input` and then `pairing` (each when present)
    with their hashes, and keeps the options that are not None."""
    if args.json:
        paths = [p for p in (getattr(args, "input", None),
                             getattr(args, "pairing", None)) if p is not None]
        sys.stdout.write(sio.dump_canonical({
            "command": args.verb, "result": result,
            "inputs": [{"path": p, "sha256": hashlib.sha256(
                Path(p).read_bytes()).hexdigest()} for p in paths],
            "options": {k: v for k, v in options.items() if v is not None}}))
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0 if ok else 1


def _dims_text(title: str, dims: list[int]) -> str:
    body = "  ".join(f"{j}:{d}" for j, d in enumerate(dims))
    return f"{title}\n  degree:dim  {body}"


def _sweep(args, flag: str, n: int, dims, title, key: str,
           options: dict | None = None) -> int:
    """Report one row of dimensions in degrees 0..n per value of --flag or
    --flag-range: `dims(v)` gives the row, `title(v)` its heading, and the
    result files the rows under `key`."""
    values = _values(getattr(args, flag), getattr(args, f"{flag}_range"),
                     flag, f"{flag}-range")
    rows = {str(v): list(dims(v).as_tuple(0, n)) for v in values}
    text = "\n".join(_dims_text(title(v), rows[str(v)]) for v in values)
    return _emit(args, {flag: values, **(options or {})}, {key: rows}, text)


def cmd_homology(args) -> int:
    dims = simplicial.betti_numbers(
        sio.load_complex(sio.load_json(args.input), where=args.input))
    return _emit(args, {}, {"betti": dims},
                 _dims_text(f"homology of {args.input}", dims))


def cmd_ih(args) -> int:
    space = _load_space(args.input)
    return _sweep(args, "q", space.n,
                  lambda q: stratified.ih_ct_dims(space, q),
                  lambda q: f"IH^(q={q})(CT) of {args.input}", "ih_ct")


def cmd_hi(args) -> int:
    space = _load_space(args.input)
    return _sweep(args, "p", space.n, lambda p: stratified.hi_dims(space, p),
                  lambda p: f"reduced HI^(p={p}) of {args.input}", "hi")


def cmd_ig(args) -> int:
    space = _load_space(args.input)
    degrees = _degrees(args.degree, args.degrees, space.n)
    out = {str(j): stratified.ig_dims(space, args.k, j) for j in degrees}
    body = "  ".join(f"{j}:{out[str(j)]}" for j in degrees)
    text = f"IG^({args.k})_j(CT) of {args.input}\n  degree:dim  {body}"
    return _emit(args, {"k": args.k, "degrees": list(degrees)}, {"ig": out},
                 text)


def cmd_table(args) -> int:
    space = _load_space(args.input)
    rng = parse_range(args.q_range) if args.q_range is not None else \
        range(-1, space.c)
    rep = stratified.ih_table(space, rng.start, rng.stop - 1)
    return _emit(args, {"q_range": [rng.start, rng.stop - 1]}, rep.to_dict(),
                 f"IH^q_j(CT) of {args.input}\n" + rep.render())


def _verdicts(verdicts) -> list[dict]:
    return [{"j": v.j, "lhs": v.lhs, "rhs": v.rhs, "ok": v.ok}
            for v in verdicts]


# the flags each theorem reads, the required one first; it refuses the others
_VERIFY_READS = {"hom": ("p", "degrees"), "duality": ("p",),
                 "signature": ("pairing",)}


def cmd_verify(args) -> int:
    theorem = args.theorem
    reads = _VERIFY_READS[theorem]
    for flag in ("p", "degrees", "pairing"):
        if getattr(args, flag) is not None and flag not in reads:
            raise sio.InputError(
                f"--{flag} is not read by --theorem {theorem}")
    if getattr(args, reads[0]) is None:
        raise sio.InputError(f"--{reads[0]} is required for --theorem {theorem}")
    space = _load_space(args.input)
    options = {"theorem": theorem, "p": args.p, "degrees": args.degrees}
    if theorem == "hom":
        degrees = _degrees(None, args.degrees, space.n)
        verdicts = stratified.verify_theorem_hom(space, args.p, degrees)
        ok = all(v.ok for v in verdicts)
        result = {"ok": ok, "verdicts": _verdicts(verdicts)}
        lines = [f"theorem {theorem} on {args.input} with p = {args.p}:",
                 "  (not independent: HI and IG read the same two rank "
                 "terms, so no degree can fail)"]
        for v in verdicts:
            lines.append(f"  j={v.j}: HI={v.lhs}  IG={v.rhs}  "
                         f"{'ok' if v.ok else 'FAIL'}")
        lines.append("PASS" if ok else "FAIL")
        return _emit(args, options, result, "\n".join(lines), ok)
    if theorem == "duality":
        try:
            verdict = stratified.verify_duality(space, args.p)
        except stratified.ModelError as e:
            # its one refusal: a model flagged "oriented": false
            raise sio.InputError(f"{args.input}.oriented: {e}") from None
        result = {"ok": verdict.ok, "hi_pairs": _verdicts(verdict.hi_pairs),
                  "ih_pairs": _verdicts(verdict.ih_pairs)}
        text = (f"duality on {args.input} with p = {args.p}: "
                + ("PASS" if verdict.ok else "FAIL"))
        return _emit(args, options, result, text, verdict.ok)
    return _signature_report(args, space, options)


def _signature_report(args, space, options: dict) -> int:
    """The signature-equality report, shared by `signature` and
    `verify --theorem signature`."""
    pairing = sio.load_pairing(sio.load_json(args.pairing), where=args.pairing)
    try:
        rep = signatures.verify_theorem_sig(space, pairing)
    except signatures.TheoremNotApplicable as e:
        return _emit(args, options, {"ok": False, "error": str(e)},
                     f"not applicable: {e}", ok=False)
    result = {"ok": rep.all_equal}
    result.update(rep.to_dict())
    text = "\n".join([
        f"signature report for {args.input}:",
        f"  sigma(Mbar) = {rep.sigma_Mbar}",
        f"  perverse sigma of CT = {rep.sigma_perverse_CT}  "
        f"(middle image dim {rep.ct_image_dim})",
        f"  sigma_IH(X) = {rep.sigma_IH_X}  "
        f"(middle IH dim {rep.ih_middle_dim_X})",
        f"  sigma_HI(X) = {rep.sigma_HI_X}  "
        f"(middle HI dim {rep.hi_middle_dim_X})",
        f"  sigma(Z) = {rep.sigma_Z}  "
        f"(middle IH dim {rep.ih_middle_dim_Z}, HI dim {rep.hi_middle_dim_Z})",
        f"  witt: {rep.witt.reason}",
        "all equal" if rep.all_equal else "MISMATCH",
    ])
    return _emit(args, options, result, text, rep.all_equal)


def cmd_ih_direct(args) -> int:
    obj = sio.load_complex(sio.load_json(args.input), where=args.input)
    if not isinstance(obj, simplicial.StratifiedComplex):
        raise sio.InputError(
            f"{args.input}: ih-direct needs a triangulation with a sigma field")
    for _ in range(args.subdivide):
        obj = simplicial.barycentric_subdivide(obj)
    return _sweep(args, "p", obj.complex.dim,
                  lambda p: simplicial.ih_direct(obj, p),
                  lambda p: f"IH^(p={p}) of {args.input} "
                            f"(subdivided {args.subdivide}x)",
                  "ih", {"subdivide": args.subdivide})


def cmd_signature(args) -> int:
    return _signature_report(args, _load_space(args.input), {})


def cmd_hodge(args) -> int:
    space = _load_space(args.input)
    degrees = _degrees(args.degree, args.degrees, space.n)
    rows = {}
    for j in degrees:
        c_fs, c_fc = stratified.hodge_weights(args.p, space.l, space.n, j)
        rows[str(j)] = {"fibred_scattering": str(c_fs), "fibred_cusp": str(c_fc)}
    lines = [f"extended-harmonic weights for {args.input} with p = {args.p}:"]
    for j in degrees:
        r = rows[str(j)]
        lines.append(f"  j={j}: scattering weight {r['fibred_scattering']}, "
                     f"cusp weight {r['fibred_cusp']}")
    return _emit(args, {"p": args.p, "degrees": degrees}, {"weights": rows},
                 "\n".join(lines))


def cmd_modes(args) -> int:
    from fractions import Fraction  # the one verb that parses a rational
    try:
        weight = Fraction(args.weight)
    except (ValueError, ZeroDivisionError):
        raise sio.InputError(
            f"--weight: {args.weight!r} is not a rational number") from None
    spec = modes.ModeSpec(torus_dim=args.torus_dim, weight=weight,
                          mode_cutoff=args.mode_cutoff)
    try:
        rep = modes.total_ext_dims(spec)
    except modes.UnsupportedWeight as e:
        raise sio.InputError(f"--weight: {e}") from None
    text = "\n".join([
        f"extended harmonic forms on R x S^1 x T^{args.torus_dim}:",
        _dims_text("  surface factor", list(rep.surface_dims)),
        _dims_text("  total", list(rep.total_dims)),
        f"  rejected modes: {len(rep.rejected_modes)}",
    ])
    return _emit(args, {"torus_dim": args.torus_dim,
                        "mode_cutoff": args.mode_cutoff,
                        "weight": args.weight}, rep.to_dict(), text)


def cmd_conifold_transition(args) -> int:
    out = sio.space_to_dict(
        stratified.conifold_transition(_load_space(args.input)))
    # under --json the text is unused: skip serializing the model twice
    return _emit(args, {}, out, "" if args.json else sio.dump_canonical(out))


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _nonnegative_int(text: str) -> int:
    if not text.strip().isdecimal():
        raise ValueError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return int(text)


def _theorem(text: str) -> str:
    if text not in _VERIFY_READS:
        raise ValueError(f"invalid choice {text!r} (choose from "
                         f"{', '.join(_VERIFY_READS)})")
    return text


_INT, _TEXT = (_integer, False, None), (str, False, None)

# verb: (handler, help, takes an input file, {flag: (convert, required,
# default)})
_VERBS = {
    "homology": (cmd_homology, "Betti numbers of a triangulation", True, {}),
    "ih": (cmd_ih, "intersection homology of the conifold transition of a "
                   "space model", True, {"q": _INT, "q-range": _TEXT}),
    "hi": (cmd_hi, "reduced intersection-space homology", True,
           {"p": _INT, "p-range": _TEXT}),
    "ig": (cmd_ig, "mixed IG groups of the conifold transition", True,
           {"k": (_integer, True, None), "degree": _INT, "degrees": _TEXT}),
    "table": (cmd_table, "perversity sweep table with map annotations", True,
              {"q-range": _TEXT}),
    "verify": (cmd_verify, "run a theorem verifier", True,
               {"theorem": (_theorem, True, None), "p": _INT,
                "degrees": _TEXT, "pairing": _TEXT}),
    "ih-direct": (cmd_ih_direct, "brute-force intersection homology of a "
                                 "triangulation", True,
                  {"p": _INT, "p-range": _TEXT,
                   "subdivide": (_nonnegative_int, False, 1)}),
    "signature": (cmd_signature, "signature-equality report", True,
                  {"pairing": (str, True, None)}),
    "hodge": (cmd_hodge, "extended-harmonic weight conversions", True,
              {"p": (_integer, True, None), "degree": _INT, "degrees": _TEXT}),
    "modes": (cmd_modes, "harmonic-mode count on the cylinder times a torus",
              False, {"torus-dim": (_nonnegative_int, True, None),
                      "mode-cutoff": (_positive_int, False, 12),
                      "weight": (str, False, "0")}),
    "conifold-transition": (cmd_conifold_transition,
                            "emit the swapped space model", True, {}),
}


def _fail(message: str):
    sys.stderr.write(f"strathom: error: {message}\n")
    raise SystemExit(2)


def _help(args) -> int:
    """The verbs, or the flags of `args.verb`, from the table."""
    if args.verb is None:
        head = "VERB [INPUT] [--FLAG VALUE ...]  (VERB --help: its flags)"
        rows = {verb: spec[1] for verb, spec in _VERBS.items()}
    else:
        _, text, takes_input, flags = _VERBS[args.verb]
        head = (f"{args.verb}{' INPUT' * takes_input} [--FLAG VALUE | "
                f"--FLAG=VALUE ...]\n  {text}")
        rows = {f"--{flag}": "required" if required else
                "optional" if default is None else f"default {default}"
                for flag, (_, required, default) in flags.items()}
    sys.stdout.write(f"usage: strathom [--json] {head}\n" + "".join(
        f"  {name:<20} {text}\n" for name, text in rows.items()))
    return 0


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The handler `fn` with `verb`, `json`, `input` and the verb's flags
    (dashes as underscores, an absent flag at its default).  The token after
    a flag is its value, even when it starts with '-'; the last repeat of a
    flag wins; `-h`/`--help` selects `_help`.  A malformed line writes
    `strathom: error: ...` to stderr and exits 2."""
    args = SimpleNamespace(json=False)
    tokens = iter(argv)
    for verb in tokens:
        if verb in ("-h", "--help"):
            return SimpleNamespace(fn=_help, verb=None)
        if verb != "--json":
            break
        args.json = True
    else:
        verb = ""
    if verb not in _VERBS:
        _fail(f"expected a verb ({', '.join(_VERBS)}), got {verb!r}")
    args.verb = verb
    args.fn, _, takes_input, flags = _VERBS[verb]
    values, inputs = {}, []
    for token in tokens:
        if token in ("-h", "--help"):
            return SimpleNamespace(fn=_help, verb=verb)
        if not token.startswith("-"):
            inputs.append(token)
            continue
        name, eq, text = token.partition("=")
        flag = name.removeprefix("--")
        if flag == name or flag not in flags:
            _fail(f"{verb}: unknown flag {name}")
        if not eq:
            text = next(tokens, None)
            if text is None:
                _fail(f"argument --{flag}: expected a value")
        try:
            values[flag] = flags[flag][0](text)
        except ValueError as e:
            _fail(f"argument --{flag}: {e}")
    for flag, (_, required, default) in flags.items():
        if required and flag not in values:
            _fail(f"{verb}: the flag --{flag} is required")
        setattr(args, flag.replace("-", "_"), values.get(flag, default))
    if len(inputs) != takes_input:
        _fail(f"{verb}: takes {'one' if takes_input else 'no'} input file, "
              f"got {inputs}")
    if takes_input:
        args.input = inputs[0]
    return args


def main(argv=None) -> int:
    """Run one command line; a refused input (`io.InputError`) exits 2 and
    any other exception, a fault of the program, 3, on one stderr line.

    With `argv` None, main is the process entry point (`python -m
    strathom`, `python -m strathom.cli`, the `strathom` script) and turns
    the cyclic garbage collector off.  A caller in a longer-lived process
    passes `argv` and keeps its collector as it was."""
    if argv is None:
        # the process runs one command and exits, and the tuples, dicts
        # and ints a command builds form no reference cycles: collecting
        # would only rescan them
        gc.disable()
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.fn(args)
    except sio.InputError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except Exception as e:
        sys.stderr.write(f"internal error: {type(e).__name__}: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
