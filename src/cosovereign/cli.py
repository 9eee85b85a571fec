"""Command-line surface for fusion computations and confluence runs.

Exit status is 0 for success (including confluent / isomorphic / residuals
zero), 1 for a mathematical negative (non-confluent, not isomorphic, a freeness
or morphism check that fails), and 2 for usage or parse errors.  Output is
deterministic for a fixed command line; the seed option is echoed into every
report so randomized sweeps driven from these reports stay reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import presentations as pres
from .matrices import load_matrix, hopf_isomorphism_witness
from .rewriting import parse_presentation, reduced_monomials, is_free_family
from .scalars import ParseError, q as q_sym, parse_scalar
from .words import (FusionElement, dim, dim_element, dual, fuse, fusion_table,
                    parse_word, word_str)
from .repring import alt_dim, psi, render_alt_word


class UsageError(Exception):
    pass


def _parse_q(text):
    if text == "sym":
        return q_sym
    value = parse_scalar(text)
    if value == 0:
        raise UsageError("q must be nonzero")
    return value


def _build_preset(args):
    name = args.preset
    if name == "hef":
        if not args.E or not args.F:
            raise UsageError("hef needs --E and --F matrix files")
        e = load_matrix(args.E)
        f = load_matrix(args.F)
        spec = pres.build_hef(e, f, unchecked=args.unchecked)
        label = f"hef (E = {args.E}, F = {args.F})"
    elif name == "hq":
        spec = pres.build_hq(_parse_q(args.q))
        label = f"hq (q = {args.q})"
    elif name == "hplus":
        spec = pres.build_hplusq(_parse_q(args.q))
        label = f"hplus (q = {args.q})"
    elif name == "slq2":
        spec = pres.build_slq2(_parse_q(args.q))
        label = f"slq2 (q = {args.q})"
    elif name == "freeprod":
        spec = pres.build_freeprod(_parse_q(args.q))
        label = f"freeprod (q = {args.q})"
    elif name == "file":
        if not args.file:
            raise UsageError("preset 'file' needs --file")
        with open(args.file, encoding="utf-8") as fh:
            alphabet, rules = parse_presentation(fh.read())
        spec = pres.PresentationSpec("FILE", {"path": args.file},
                                     alphabet, tuple(rules))
        label = f"file ({args.file})"
    else:
        raise UsageError(f"unknown presentation {name!r}")
    return spec, label


def _emit(args, payload, text):
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def cmd_fuse(args):
    x = parse_word(args.x)
    y = parse_word(args.y)
    result = fuse(x, y)
    lines = [result.render()]
    payload = {"x": word_str(x), "y": word_str(y), "product": result.to_pairs()}
    if args.n is not None:
        summand_dims = [dim(w, args.n) for w, _ in result.pairs()]
        total = dim_element(result, args.n)
        product = dim(x, args.n) * dim(y, args.n)
        if total != product:
            print("dimension identity failed", file=sys.stderr)
            return 1
        lines.append(f"dims(n={args.n}): "
                     + " + ".join(str(d) for d in summand_dims)
                     + f" = {total} = {dim(x, args.n)}*{dim(y, args.n)}")
        payload["dims"] = {"n": args.n, "summands": summand_dims,
                           "total": total}
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_dual(args):
    print(word_str(dual(parse_word(args.x))))
    return 0


def cmd_dim(args):
    print(dim(parse_word(args.x), args.n))
    return 0


def cmd_psi(args):
    w = psi(parse_word(args.x)).single_word()
    d = alt_dim(w)
    payload = {"word": args.x, "image": render_alt_word(w),
               "factors": [{"kind": k, "index": i} for k, i in w], "dim": d}
    _emit(args, payload, f"{render_alt_word(w)} (dim {d})")
    return 0


def cmd_table(args):
    table = fusion_table(args.max_len)
    payload = {"max_len": args.max_len, "seed": args.seed,
               "entries": [{"x": word_str(x), "y": word_str(y),
                            "product": p.to_pairs()} for x, y, p in table]}
    text = "\n".join(f"{word_str(x)} {word_str(y)} -> {p.render()}"
                     for x, y, p in table)
    _emit(args, payload, text)
    return 0


def parse_table_payload(blob):
    """Inverse of the machine table format, for round-trip checks."""
    data = json.loads(blob)
    return [(parse_word(e["x"]), parse_word(e["y"]),
             FusionElement.from_pairs(e["product"]))
            for e in data["entries"]]


def cmd_check(args):
    from .rewriting import confluent

    spec, label = _build_preset(args)
    report = confluent(spec.rules)
    c = report.counts()
    payload = {"presentation": label, "seed": args.seed,
               "confluent": report.ok,
               "counts": c,
               "ambiguities": report.to_payload(spec.alphabet)}
    text = (f"presentation: {label}\nseed: {args.seed}\n"
            + report.to_text(spec.alphabet, spec.rules))
    _emit(args, payload, text)
    return 0 if report.ok else 1


def cmd_basis(args):
    spec, label = _build_preset(args)
    monos = reduced_monomials(spec.rules, spec.alphabet, args.max_len)
    rendered = [spec.alphabet.render(m) for m in monos]
    payload = {"presentation": label, "max_len": args.max_len,
               "count": len(rendered), "monomials": rendered}
    _emit(args, payload, "\n".join(rendered))
    return 0


def cmd_free_check(args):
    spec, label = _build_preset(args)
    letters = [s.strip() for s in args.letters.split(",") if s.strip()]
    for name in letters:
        if name not in spec.alphabet.names:
            raise UsageError(f"unknown generator {name!r}")
    free = is_free_family(spec.rules, spec.alphabet, letters, args.max_len)
    payload = {"presentation": label, "letters": letters,
               "max_len": args.max_len, "free": free, "seed": args.seed}
    _emit(args, payload,
          f"family {{{', '.join(letters)}}} free up to length "
          f"{args.max_len}: {free}")
    return 0 if free else 1


def cmd_iso(args):
    e = load_matrix(args.E)
    f = load_matrix(args.F)
    witness = hopf_isomorphism_witness(e, f)
    if witness is None:
        print("not isomorphic")
        return 1
    print(f"isomorphic via condition {witness}")
    return 0


def cmd_verify_pi(args):
    report, fp = pres.verify_pi(_parse_q(args.q))
    payload = {"q": args.q, "seed": args.seed, "ok": report.ok,
               "checks": [{"relation": c.relation, "ok": c.ok,
                           "residual": c.residual.render(fp.alphabet)}
                          for c in report.checks]}
    text = f"q: {args.q}\nseed: {args.seed}\n" + report.to_text(fp.alphabet)
    _emit(args, payload, text)
    return 0 if report.ok else 1


def cmd_aaut(args):
    f = load_matrix(args.F)
    rel = pres.build_aaut(f)
    payload = {"n": f.rows, "counts": rel.counts(),
               "generators": list(rel.alphabet.names),
               "families": {name: [p.render(rel.alphabet) + " = 0"
                                   for p in polys]
                            for name, polys in rel.families.items()}}
    lines = [f"generators: {len(rel.alphabet.names)}"]
    for name, polys in rel.families.items():
        lines.append(f"[{name}] ({len(polys)} relations)")
        lines.extend(f"  {p.render(rel.alphabet)} = 0" for p in polys)
    _emit(args, payload, "\n".join(lines))
    return 0


def _add_format(p):
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_seed(p):
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in reports for reproducibility")


def _length(text):
    """argparse type for --max-len: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return value


def _add_preset(p):
    p.add_argument("preset",
                   choices=("hef", "hq", "hplus", "slq2", "freeprod", "file"))
    p.add_argument("--E", metavar="FILE", help="matrix file for E")
    p.add_argument("--F", metavar="FILE", help="matrix file for F")
    p.add_argument("--q", default="sym",
                   help="'sym' or an exact scalar such as 3/2")
    p.add_argument("--file", metavar="FILE", help="presentation file")
    p.add_argument("--unchecked", action="store_true",
                   help="skip the trace preconditions (negative tests)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cosov",
        description="Exact fusion rules and rewriting checks for universal "
                    "cosovereign Hopf algebras.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", help="decompose a tensor product of simples")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("-n", type=int, default=None,
                   help="also print dimensions for this fundamental size")
    _add_format(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("dual", help="label of the dual simple")
    p.add_argument("x")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("dim", help="dimension of a simple label")
    p.add_argument("x")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("psi", help="alternated-word image of a label")
    p.add_argument("x")
    _add_format(p)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("table", help="emit the fusion table up to a length")
    p.add_argument("--max-len", type=_length, default=2)
    _add_format(p)
    _add_seed(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("check", help="confluence report for a presentation")
    _add_preset(p)
    _add_format(p)
    _add_seed(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("basis", help="reduced monomials up to a length")
    _add_preset(p)
    p.add_argument("--max-len", type=_length, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("free-check",
                       help="is the generated subalgebra free at this scale")
    _add_preset(p)
    p.add_argument("--letters", required=True,
                   help="comma-separated generator names")
    p.add_argument("--max-len", type=_length, required=True)
    _add_format(p)
    _add_seed(p)
    p.set_defaults(func=cmd_free_check)

    p = sub.add_parser("iso", help="decide Hopf isomorphism of H(E), H(F)")
    p.add_argument("--E", metavar="FILE", required=True)
    p.add_argument("--F", metavar="FILE", required=True)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("verify-pi",
                       help="reduce the free-product images of all relations")
    p.add_argument("--q", default="sym")
    _add_format(p)
    _add_seed(p)
    p.set_defaults(func=cmd_verify_pi)

    p = sub.add_parser("aaut-relations",
                       help="emit quantum automorphism relation data")
    p.add_argument("--F", metavar="FILE", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_aaut)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except (ParseError, UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
