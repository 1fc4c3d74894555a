"""Command-line front end.

Verbs: homology, ih, hi, ig, table, verify, ih-direct, signature, hodge,
modes, conifold-transition.  Every run emits either a human-readable table
or, with --json, a machine-readable report; both carry the same numbers,
plus a provenance block naming the input files, their hashes and the
options.  Exit codes: 0 success, 1 a verification verdict failed, 2 bad
input (a malformed field, a flag the verb does not read, or a model that
fails a load check such as Poincare-Lefschetz duality).
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import io as sio
from . import modes, signatures, simplicial, stratified

_RANGE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def parse_range(text: str) -> range:
    m = _RANGE.match(text)
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


def _provenance(paths: list[str], options: dict) -> dict:
    inputs = []
    for p in paths:
        digest = hashlib.sha256(Path(p).read_bytes()).hexdigest()
        inputs.append({"path": str(p), "sha256": digest})
    return {"inputs": inputs,
            "options": {k: v for k, v in sorted(options.items())
                        if v is not None}}


def _load_space(path: str):
    return sio.load_space(sio.load_json(path), where=str(path),
                          base=Path(path).parent)


def _emit(args, command: str, paths: list[str], options: dict,
          result: dict, text: str) -> None:
    if args.json:
        report = {"command": command, "result": result}
        report.update(_provenance(paths, options))
        sys.stdout.write(sio.dump_canonical(report))
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _dims_text(title: str, dims: list[int]) -> str:
    body = "  ".join(f"{j}:{d}" for j, d in enumerate(dims))
    return f"{title}\n  degree:dim  {body}"


def cmd_homology(args) -> int:
    dims = simplicial.betti_numbers(
        sio.load_complex(sio.load_json(args.input), where=args.input))
    _emit(args, "homology", [args.input], {}, {"betti": dims},
          _dims_text(f"homology of {args.input}", dims))
    return 0


def cmd_ih(args) -> int:
    space = _load_space(args.input)
    qs = _values(args.q, args.q_range, "q", "q-range")
    rows = {str(q): list(stratified.ih_ct_dims(space, q).as_tuple(0, space.n))
            for q in qs}
    text = "\n".join(_dims_text(f"IH^(q={q})(CT) of {args.input}", rows[str(q)])
                     for q in qs)
    _emit(args, "ih", [args.input], {"q": qs}, {"ih_ct": rows}, text)
    return 0


def cmd_hi(args) -> int:
    space = _load_space(args.input)
    ps = _values(args.p, args.p_range, "p", "p-range")
    rows = {str(p): list(stratified.hi_dims(
        space, stratified.Perversity(p, space.codim_sigma))
        .as_tuple(0, space.n)) for p in ps}
    text = "\n".join(
        _dims_text(f"reduced HI^(p={p}) of {args.input}", rows[str(p)])
        for p in ps)
    _emit(args, "hi", [args.input], {"p": ps}, {"hi": rows}, text)
    return 0


def cmd_ig(args) -> int:
    space = _load_space(args.input)
    degrees = _degrees(args.degree, args.degrees, space.n)
    out = {str(j): stratified.ig_dims(space, stratified.IGRequest(args.k, j))
           for j in degrees}
    body = "  ".join(f"{j}:{out[str(j)]}" for j in degrees)
    text = f"IG^({args.k})_j(CT) of {args.input}\n  degree:dim  {body}"
    _emit(args, "ig", [args.input], {"k": args.k, "degrees": list(degrees)},
          {"ig": out}, text)
    return 0


def cmd_table(args) -> int:
    space = _load_space(args.input)
    rng = parse_range(args.q_range) if args.q_range else \
        range(-1, space.c)
    rep = stratified.ih_table(space, rng.start, rng.stop - 1)
    _emit(args, "table", [args.input], {"q_range": [rng.start, rng.stop - 1]},
          rep.to_dict(), f"IH^q_j(CT) of {args.input}\n" + rep.render())
    return 0


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
        verdicts = stratified.verify_theorem_hom(
            space, stratified.Perversity(args.p, space.codim_sigma), degrees)
        ok = all(v.ok for v in verdicts)
        result = {"ok": ok,
                  "verdicts": [{"j": v.j, "lhs": v.lhs, "rhs": v.rhs,
                                "ok": v.ok} for v in verdicts]}
        lines = [f"theorem {theorem} on {args.input} with p = {args.p}:",
                 "  (not independent: HI and IG read the same two rank "
                 "terms, so no degree can fail)"]
        for v in verdicts:
            lines.append(f"  j={v.j}: HI={v.lhs}  IG={v.rhs}  "
                         f"{'ok' if v.ok else 'FAIL'}")
        lines.append("PASS" if ok else "FAIL")
        _emit(args, "verify", [args.input], options, result, "\n".join(lines))
        return 0 if ok else 1
    if theorem == "duality":
        verdict = stratified.verify_duality(
            space, stratified.Perversity(args.p, space.codim_sigma))
        result = {
            "ok": verdict.ok,
            "hi_pairs": [{"j": v.j, "lhs": v.lhs, "rhs": v.rhs, "ok": v.ok}
                         for v in verdict.hi_pairs],
            "ih_pairs": [{"j": v.j, "lhs": v.lhs, "rhs": v.rhs, "ok": v.ok}
                         for v in verdict.ih_pairs],
        }
        text = (f"duality on {args.input} with p = {args.p}: "
                + ("PASS" if verdict.ok else "FAIL"))
        _emit(args, "verify", [args.input], options, result, text)
        return 0 if verdict.ok else 1
    return _signature_report(args, space, "verify", options)


def _signature_report(args, space, command: str, options: dict) -> int:
    """The signature-equality report, shared by `signature` and
    `verify --theorem signature`."""
    paths = [args.input, args.pairing]
    pairing = sio.load_pairing(sio.load_json(args.pairing), where=args.pairing)
    try:
        rep = signatures.verify_theorem_sig(space, pairing)
    except signatures.TheoremNotApplicable as e:
        _emit(args, command, paths, options, {"ok": False, "error": str(e)},
              f"not applicable: {e}")
        return 1
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
    _emit(args, command, paths, options, result, text)
    return 0 if rep.all_equal else 1


def cmd_ih_direct(args) -> int:
    obj = sio.load_complex(sio.load_json(args.input), where=args.input)
    if not isinstance(obj, simplicial.StratifiedComplex):
        raise sio.InputError(
            f"{args.input}: ih-direct needs a triangulation with a sigma field")
    for _ in range(args.subdivide):
        obj = simplicial.barycentric_subdivide(obj)
    ps = _values(args.p, args.p_range, "p", "p-range")
    rows = {str(p): list(simplicial.ih_direct(obj, p)
                         .as_tuple(0, obj.complex.dim)) for p in ps}
    text = "\n".join(
        _dims_text(f"IH^(p={p}) of {args.input} "
                   f"(subdivided {args.subdivide}x)", rows[str(p)])
        for p in ps)
    _emit(args, "ih-direct", [args.input],
          {"p": ps, "subdivide": args.subdivide}, {"ih": rows}, text)
    return 0


def cmd_signature(args) -> int:
    return _signature_report(args, _load_space(args.input), "signature", {})


def cmd_hodge(args) -> int:
    space = _load_space(args.input)
    if args.p is None:
        raise sio.InputError("--p is required for hodge")
    degrees = _degrees(args.degree, args.degrees, space.n)
    p = stratified.Perversity(args.p, space.codim_sigma)
    rows = {}
    for j in degrees:
        c_fs, c_fc = stratified.hodge_weights(p, space.l, space.n, j)
        rows[str(j)] = {"fibred_scattering": str(c_fs), "fibred_cusp": str(c_fc)}
    lines = [f"extended-harmonic weights for {args.input} with p = {args.p}:"]
    for j in degrees:
        r = rows[str(j)]
        lines.append(f"  j={j}: scattering weight {r['fibred_scattering']}, "
                     f"cusp weight {r['fibred_cusp']}")
    _emit(args, "hodge", [args.input], {"p": args.p, "degrees": degrees},
          {"weights": rows}, "\n".join(lines))
    return 0


def cmd_modes(args) -> int:
    try:
        weight = Fraction(args.weight)
    except (ValueError, ZeroDivisionError):
        raise sio.InputError(
            f"--weight: {args.weight!r} is not a rational number") from None
    spec = modes.ModeSpec(torus_dim=args.torus_dim, weight=weight,
                          mode_cutoff=args.mode_cutoff)
    rep = modes.total_ext_dims(spec)
    text = "\n".join([
        f"extended harmonic forms on R x S^1 x T^{args.torus_dim}:",
        _dims_text("  surface factor", list(rep.surface_dims)),
        _dims_text("  total", list(rep.total_dims)),
        f"  rejected modes: {len(rep.rejected_modes)}",
    ])
    _emit(args, "modes", [], {"torus_dim": args.torus_dim,
                              "mode_cutoff": args.mode_cutoff,
                              "weight": args.weight},
          rep.to_dict(), text)
    return 0


def cmd_conifold_transition(args) -> int:
    space = _load_space(args.input)
    out = sio.space_to_dict(stratified.conifold_transition(space))
    if args.json:
        _emit(args, "conifold-transition", [args.input], {}, out, "")
    else:
        sys.stdout.write(sio.dump_canonical(out))
    return 0


def _nonnegative_int(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="strathom",
        description="exact intersection-space / intersection-homology "
                    "calculator for two-strata pseudomanifolds")
    ap.add_argument("--json", action="store_true",
                    help="emit a machine-readable report")
    sub = ap.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("homology", cmd_homology, help="Betti numbers of a triangulation")
    p.add_argument("input")

    p = add("ih", cmd_ih, help="intersection homology of the conifold "
                               "transition of a space model")
    p.add_argument("input")
    p.add_argument("--q", type=int)
    p.add_argument("--q-range")

    p = add("hi", cmd_hi, help="reduced intersection-space homology")
    p.add_argument("input")
    p.add_argument("--p", type=int)
    p.add_argument("--p-range")

    p = add("ig", cmd_ig, help="mixed IG groups of the conifold transition")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--degree", type=int)
    p.add_argument("--degrees")

    p = add("table", cmd_table, help="perversity sweep table with map "
                                     "annotations")
    p.add_argument("input")
    p.add_argument("--q-range")

    p = add("verify", cmd_verify, help="run a theorem verifier")
    p.add_argument("input")
    p.add_argument("--theorem", choices=list(_VERIFY_READS),
                   required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--degrees")
    p.add_argument("--pairing")

    p = add("ih-direct", cmd_ih_direct,
            help="brute-force intersection homology of a triangulation")
    p.add_argument("input")
    p.add_argument("--p", type=int)
    p.add_argument("--p-range")
    p.add_argument("--subdivide", type=_nonnegative_int, default=1)

    p = add("signature", cmd_signature, help="signature-equality report")
    p.add_argument("input")
    p.add_argument("--pairing", required=True)

    p = add("hodge", cmd_hodge, help="extended-harmonic weight conversions")
    p.add_argument("input")
    p.add_argument("--p", type=int)
    p.add_argument("--degree", type=int)
    p.add_argument("--degrees")

    p = add("modes", cmd_modes, help="harmonic-mode count on the cylinder "
                                     "times a torus")
    p.add_argument("--torus-dim", type=_nonnegative_int, required=True)
    p.add_argument("--mode-cutoff", type=_positive_int, default=12)
    p.add_argument("--weight", default="0")

    p = add("conifold-transition", cmd_conifold_transition,
            help="emit the swapped space model")
    p.add_argument("input")
    return ap


_DASH_RANGE = re.compile(r"^-\d+\.\.-?\d+$")


def _merge_range_values(argv: list[str]) -> list[str]:
    """Join '--flag -1..2' into '--flag=-1..2' so argparse does not read the
    value as an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok.startswith("--") and "=" not in tok and i + 1 < len(argv)
                and _DASH_RANGE.match(argv[i + 1])):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = ap.parse_args(_merge_range_values(list(argv)))
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
