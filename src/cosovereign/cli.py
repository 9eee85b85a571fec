"""Command-line surface for fusion computations and confluence runs.

Exit status is 0 for success (including confluent / isomorphic / residuals
zero), 1 for a mathematical negative (non-confluent, not isomorphic, a freeness
or morphism check that fails), and 2 for usage or parse errors.  Output is
deterministic for a fixed command line; the seed option is echoed into every
report so randomized sweeps driven from these reports stay reproducible.

A command line is read straight off the argument specs in `COMMANDS`, with
no parser built.  Help, usage errors and rare spellings (abbreviations, `--`,
`-n3`) go to the argparse parser holding every command, which prints every
help and error text, so every top-level usage text lists every command.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import presentations as pres
from .matrices import load_matrix, hopf_isomorphism_witness
from .rewriting import (confluent, is_free_family, parse_presentation,
                        reduced_monomials)
from .scalars import ParseError, q as q_sym, parse_scalar
from .words import (dim, dim_element, dual, fuse, fusion_table, parse_word,
                    word_str)
from .repring import alt_dim, psi, render_alt_word


class UsageError(Exception):
    pass


def _parse_q(text):
    return q_sym if text == "sym" else parse_scalar(text)


def _hef(args):
    if not args.E or not args.F:
        raise UsageError("hef needs --E and --F matrix files")
    system = pres.build_hef(load_matrix(args.E), load_matrix(args.F),
                            unchecked=args.unchecked)
    return system, f"E = {args.E}, F = {args.F}"


def _file(args):
    if not args.file:
        raise UsageError("preset 'file' needs --file")
    with open(args.file, encoding="utf-8") as fh:
        return parse_presentation(fh.read()), args.file


def _of_q(builder):
    """Preset from the `presentations` function named `builder`, looked up
    at each call, applied to --q."""
    return lambda args: (getattr(pres, builder)(_parse_q(args.q)),
                         f"q = {args.q}")


#: preset name -> function of the parsed arguments giving (system, detail)
PRESETS = {"hef": _hef, "hq": _of_q("build_hq"),
           "hplus": _of_q("build_hplusq"), "slq2": _of_q("build_slq2"),
           "freeprod": _of_q("build_freeprod"), "file": _file}


def _build_preset(args):
    system, detail = PRESETS[args.preset](args)
    return system, f"{args.preset} ({detail})"


def _emit(args, json_text, text):
    """Print text() or, under --format json, json_text()."""
    print(json_text() if args.format == "json" else text())


def _json(obj):
    return json.dumps(obj, indent=2)


def cmd_fuse(args):
    x = parse_word(args.x)
    y = parse_word(args.y)
    result = fuse(x, y)
    lines, dims = [], {}
    if args.n is not None:
        summand_dims = [dim(w, args.n) for w, _ in result.pairs()]
        total = dim_element(result, args.n)
        dx, dy = dim(x, args.n), dim(y, args.n)
        if total != dx * dy:
            print("dimension identity failed", file=sys.stderr)
            return 1
        lines.append(f"dims(n={args.n}): "
                     + " + ".join(str(d) for d in summand_dims)
                     + f" = {total} = {dx}*{dy}")
        dims["dims"] = {"n": args.n, "summands": summand_dims, "total": total}
    _emit(args, lambda: _json({"x": word_str(x), "y": word_str(y),
                               "product": result.to_pairs(), **dims}),
          lambda: "\n".join([result.render(), *lines]))
    return 0


def cmd_dual(args):
    print(word_str(dual(parse_word(args.x))))
    return 0


def cmd_dim(args):
    print(dim(parse_word(args.x), args.n))
    return 0


def cmd_psi(args):
    w = psi(parse_word(args.x)).single_word()
    d, image = alt_dim(w), render_alt_word(w)
    _emit(args, lambda: _json({"word": args.x, "image": image,
                               "factors": [{"kind": k, "index": i}
                                           for k, i in w],
                               "dim": d}),
          lambda: f"{image} (dim {d})")
    return 0


#: One table entry as `json.dumps(..., indent=2)` nests it in "entries",
#: with its product's words joined by `_JSON_SUMMANDS` in the last slot but
#: one and the unit's spelling, if it ends the product, in the last.
_JSON_ENTRY = ('    {{\n      "x": "{}",\n      "y": "{}",\n      "product": [\n'
               '        [\n          "{}{}",\n          1\n        ]\n'
               '      ]\n    }}')
_JSON_SUMMANDS = '",\n          1\n        ],\n        [\n          "'

# The writers spell the empty word `e` inline rather than mapping `word_str`
# over each product: summand lengths len(x) + len(y) - 2k strictly decrease,
# so only the last summand can be the unit, and the rest join as they are.


def _table_json(table, max_len, seed):
    """`json.dumps(payload, indent=2)` of the table, written in one pass:
    words are `a`/`b` strings or `e`, so nothing needs escaping, and every
    multiplicity is 1."""
    entries = ",\n".join(
        _JSON_ENTRY.format(x or "e", y or "e", _JSON_SUMMANDS.join(p),
                           "" if p[-1] else "e")
        for x, y, p in table)
    return (f'{{\n  "max_len": {max_len},\n  "seed": {seed},\n'
            f'  "entries": [\n{entries}\n  ]\n}}')


def cmd_table(args):
    # each product is its summand words, leading term first
    table = fusion_table(args.max_len)
    _emit(args, lambda: _table_json(table, args.max_len, args.seed),
          lambda: "\n".join(f"{x or 'e'} {y or 'e'} -> {' + '.join(p)}"
                            f"{'' if p[-1] else 'e'}" for x, y, p in table))
    return 0


def cmd_check(args):
    spec, label = _build_preset(args)
    alphabet, checks = confluent(spec)
    ok = all(r.is_zero() for _, r in checks)
    inclusion = sum(a.kind == "inclusion" for a, _ in checks)
    counts = {"inclusion": inclusion, "overlap": len(checks) - inclusion}

    def text():
        lines = [f"presentation: {label}", f"seed: {args.seed}"]
        for a, r in checks:
            status = ("ok" if r.is_zero() else
                      f"FAIL residual {r.render(alphabet)}")
            lines.append(f"{a.kind:9s} rules ({a.i:2d},{a.j:2d}) witness "
                         f"{alphabet.render(a.witness):30s} {status}")
        lines.append(f"{len(checks)} ambiguities ({inclusion} inclusion, "
                     f"{counts['overlap']} overlap); confluent: {ok}")
        return "\n".join(lines)
    _emit(args, lambda: _json({
        "presentation": label, "seed": args.seed, "confluent": ok,
        "counts": counts,
        "ambiguities": [{"kind": a.kind, "rules": [a.i, a.j],
                         "witness": alphabet.render(a.witness),
                         "resolved": r.is_zero(),
                         "residual": r.render(alphabet)}
                        for a, r in checks]}), text)
    return 0 if ok else 1


def cmd_basis(args):
    spec, label = _build_preset(args)
    monos = reduced_monomials(spec, args.max_len)
    rendered = [spec.alphabet.render(m) for m in monos]
    _emit(args, lambda: _json({"presentation": label,
                               "max_len": args.max_len,
                               "count": len(rendered), "monomials": rendered}),
          lambda: "\n".join(rendered))
    return 0


def cmd_free_check(args):
    spec, label = _build_preset(args)
    letters = [s.strip() for s in args.letters.split(",") if s.strip()]
    for name in letters:
        if name not in spec.alphabet.names:
            raise UsageError(f"unknown generator {name!r}")
    free = is_free_family(spec, letters, args.max_len)
    _emit(args, lambda: _json({"presentation": label, "letters": letters,
                               "max_len": args.max_len, "free": free,
                               "seed": args.seed}),
          lambda: (f"family {{{', '.join(letters)}}} free up to length "
                   f"{args.max_len}: {free}"))
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
    alphabet, checks = pres.verify_pi(_parse_q(args.q))
    ok = all(r.is_zero() for _, r in checks)
    _emit(args, lambda: _json({"q": args.q, "seed": args.seed, "ok": ok,
                               "checks": [{"relation": label,
                                           "ok": r.is_zero(),
                                           "residual": r.render(alphabet)}
                                          for label, r in checks]}),
          lambda: "\n".join([f"q: {args.q}", f"seed: {args.seed}", *(
              f"ok  {label}" if r.is_zero() else
              f"FAIL {label}  residual: {r.render(alphabet)}"
              for label, r in checks), f"morphism well-defined: {ok}"]))
    return 0 if ok else 1


def cmd_aaut(args):
    f = load_matrix(args.F)
    rel = pres.build_aaut(f)
    families = {name: [p.render(rel.alphabet) + " = 0" for p in polys]
                for name, polys in rel.families.items()}

    def text():
        lines = [f"generators: {len(rel.alphabet.names)}"]
        for name, relations in families.items():
            lines.append(f"[{name}] ({len(relations)} relations)")
            lines.extend("  " + r for r in relations)
        return "\n".join(lines)
    counts = {name: len(relations) for name, relations in families.items()}
    _emit(args, lambda: _json({"n": f.rows, "counts": counts,
                               "generators": list(rel.alphabet.names),
                               "families": families}), text)
    return 0


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


def _arg(*flags, **options):
    """One argument spec: what `add_argument` takes."""
    return flags, options


FORMAT = _arg("--format", choices=("text", "json"), default="text")
SEED = _arg("--seed", type=int, default=0,
            help="recorded in reports for reproducibility")
MAX_LEN = _arg("--max-len", type=_length, required=True)
PRESET = (_arg("preset", choices=tuple(PRESETS)),
          _arg("--E", metavar="FILE", help="matrix file for E"),
          _arg("--F", metavar="FILE", help="matrix file for F"),
          _arg("--q", default="sym",
               help="'sym' or an exact scalar such as 3/2"),
          _arg("--file", metavar="FILE", help="presentation file"),
          _arg("--unchecked", action="store_true",
               help="skip the trace preconditions (negative tests)"))

#: command -> (handler, help, argument specs), in `cosov --help` order
COMMANDS = {
    "fuse": (cmd_fuse, "decompose a tensor product of simples", (
        _arg("x"), _arg("y"),
        _arg("-n", type=int, default=None,
             help="also print dimensions for this fundamental size"),
        FORMAT)),
    "dual": (cmd_dual, "label of the dual simple", (_arg("x"),)),
    "dim": (cmd_dim, "dimension of a simple label",
            (_arg("x"), _arg("n", type=int))),
    "psi": (cmd_psi, "alternated-word image of a label", (_arg("x"), FORMAT)),
    "table": (cmd_table, "emit the fusion table up to a length",
              (_arg("--max-len", type=_length, default=2), FORMAT, SEED)),
    "check": (cmd_check, "confluence report for a presentation",
              (*PRESET, FORMAT, SEED)),
    "basis": (cmd_basis, "reduced monomials up to a length",
              (*PRESET, MAX_LEN, FORMAT)),
    "free-check": (cmd_free_check,
                   "is the generated subalgebra free at this scale", (
                       *PRESET,
                       _arg("--letters", required=True,
                            help="comma-separated generator names"),
                       MAX_LEN, FORMAT, SEED)),
    "iso": (cmd_iso, "decide Hopf isomorphism of H(E), H(F)",
            (_arg("--E", metavar="FILE", required=True),
             _arg("--F", metavar="FILE", required=True))),
    "verify-pi": (cmd_verify_pi,
                  "reduce the free-product images of all relations",
                  (_arg("--q", default="sym"), FORMAT, SEED)),
    "aaut-relations": (cmd_aaut, "emit quantum automorphism relation data",
                       (_arg("--F", metavar="FILE", required=True), FORMAT)),
}


def _dest(flags):
    """The attribute argparse stores an argument under (one flag a spec)."""
    return flags[0].lstrip("-").replace("-", "_")


def _read(argv):
    """The namespace argparse gives for `argv`, read straight off the specs
    of `COMMANDS[argv[0]]`; None where argparse must decide.

    It reads exact options (`--opt v`, `--opt=v`, `-n v`), `store_true`
    flags and positionals in order, applying each spec's `type`, `choices`,
    `default` and `required`.  It gives None for an unknown command; any
    other token starting with `-` (help, abbreviations, `--`, `-n3`,
    negative positionals); a repeated option; a value `=--`, or a separate
    value starting with `-` other than a negative integer; `=` on a flag; a
    failed `type` or `choices`; a missing required option; or the wrong
    number of positionals.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, specs = COMMANDS[argv[0]]
    flagged = {flags[0]: options for flags, options in specs
               if flags[0].startswith("-")}
    raw, positionals = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        name, eq, value = (token.partition("=") if token.startswith("--")
                           else (token, "", None))
        if name not in flagged or name in raw:
            return None
        if flagged[name].get("action") == "store_true":
            if eq:
                return None
            raw[name] = True
            continue
        if eq:
            if value == "--":  # argparse would store [] unchecked
                return None
        else:
            value = next(tokens, "-")  # none left: defer, as for a dash
            # argparse takes a negative integer as a value, as no option of
            # any command looks like one
            if value.startswith("-") and not re.fullmatch("-[0-9]+", value):
                return None
        raw[name] = value
    named = [flags[0] for flags, _ in specs if flags[0] not in flagged]
    if len(positionals) != len(named):
        return None
    raw.update(zip(named, positionals))
    args = argparse.Namespace(command=argv[0], func=func)
    for flags, options in specs:
        if flags[0] not in raw:
            if options.get("required"):
                return None
            value = options.get("default", False if options.get("action")
                                == "store_true" else None)
        elif raw[flags[0]] is True:
            value = True
        else:
            try:
                value = options.get("type", str)(raw[flags[0]])
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if value not in options.get("choices", (value,)):
                return None
        setattr(args, _dest(flags), value)
    return args


def _dash_taker(argv):
    """The argument that command line `argv` gives a `--` as its value, or
    None: an exact option as `--opt=--` or `--opt --`, or a positional that
    a `--` after the separator `--` would fill.  Python versions part on
    such a value (3.11's argparse drops it, later ones keep the string), so
    `parse_args` refuses it before argparse parses.  A line with any other
    token starting with `-`, but a negative integer value, is left to
    argparse.
    """
    specs = COMMANDS[argv[0]][2]
    takes = {flags[0]: options.get("action") != "store_true"
             for flags, options in specs if flags[0].startswith("-")}
    positionals = [flags[0] for flags, _ in specs if flags[0] not in takes]
    filled, tokens = 0, iter(argv[1:])
    for token in tokens:
        if token == "--":
            break
        name, eq, value = token.partition("=")
        if not token.startswith("-"):
            filled += 1
        elif name not in takes or (eq and not takes[name]):
            return None
        elif takes[name]:
            value = value if eq else next(tokens, "")
            if value == "--":
                return name
            if value.startswith("-") and not re.fullmatch("-[0-9]+", value):
                return None
    for token in tokens:
        if token == "--" and filled < len(positionals):
            return positionals[filled]
        filled += 1
    return None


def parse_args(argv=None):
    """Parse `argv` (default `sys.argv[1:]`).  A line `_read` takes builds
    no parser; any other (help, usage errors, rare spellings such as
    abbreviations) goes to the parser holding every command, which prints
    every help and error text; a `--` given as a value is refused."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is not None:
        return args
    ap = argparse.ArgumentParser(
        prog="cosov",
        description="Exact fusion rules and rewriting checks for "
                    "universal cosovereign Hopf algebras.")
    commands = ap.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (func, help_text, specs) in COMMANDS.items():
        parsers[name] = p = commands.add_parser(name, help=help_text)
        for flags, options in specs:
            p.add_argument(*flags, **options)
        p.set_defaults(func=func)
    taker = _dash_taker(argv) if argv and argv[0] in COMMANDS else None
    if taker:
        parsers[argv[0]].error(f"argument {taker}: expected one argument")
    args = ap.parse_args(argv)
    # Python 3.11's argparse drops a `--` value that `_dash_taker` leaves
    # (`-n--`, an abbreviation) and stores [], skipping `type`/`choices`
    for flags, _ in COMMANDS[args.command][2]:
        if isinstance(getattr(args, _dest(flags)), list):
            parsers[args.command].error(
                f"argument {flags[0]}: expected one argument")
    return args


def build_parser():
    """An object whose `parse_args` is this module's `parse_args`."""
    return argparse.Namespace(parse_args=parse_args)


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
