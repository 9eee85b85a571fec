"""Command-line surface for fusion computations and confluence runs.

Exit status is 0 for success (including confluent / isomorphic / residuals
zero), 1 for a mathematical negative (non-confluent, not isomorphic, a freeness
or morphism check that fails), 2 for usage or parse errors, and 141 (128 +
SIGPIPE, as a shell reports it) with nothing on stderr when the reader of
stdout closes it early, as `cosov table --max-len 8 | head -n 1` does.  Output
is deterministic for a fixed command line; the seed option is echoed into
every report so randomized sweeps driven from these reports stay reproducible.

A command line is read straight off the argument specs in `COMMANDS` in one
pass, with no parser built; that pass also names a `--` given as a value,
which is refused with argparse's message on every Python version.  Help,
other usage errors and rare spellings (abbreviations, the separator `--`,
`-n3`) go to the argparse parser holding every command, which prints every
help and error text, so every top-level usage text lists every command.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import presentations as pres
from .matrices import load_matrix, hopf_isomorphism_witness
from .rewriting import (confluent, is_free_family, parse_presentation,
                        reduced_monomials)
from .scalars import ParseError, q as q_sym, parse_scalar
# dim_element is not called here, but stays a name of this module: the
# benchmark's span wrappers patch `cli.dim_element` by name
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
        total = sum(summand_dims)
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


#: What joins the words of one product in a table JSON entry.
_JSON_SUMMANDS = '",\n          1\n        ],\n        [\n          "'

# The writers spell the empty word `e` inline rather than mapping `word_str`
# over each product: summand lengths len(x) + len(y) - 2k strictly decrease,
# so only the last summand can be the unit, and the rest join as they are.


def _table_json(table, max_len, seed):
    """`json.dumps(payload, indent=2)` of the table, written in one pass:
    words are `a`/`b` strings or `e`, so nothing needs escaping, and every
    multiplicity is 1."""
    entries = ",\n".join(
        f'    {{\n      "x": "{x or "e"}",\n      "y": "{y or "e"}",\n'
        f'      "product": [\n        [\n          '
        f'"{_JSON_SUMMANDS.join(p)}{"" if p[-1] else "e"}",\n          1\n'
        f'        ]\n      ]\n    }}'
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
    """One pass over `argv` against the specs of `COMMANDS[argv[0]]`: the
    namespace argparse gives for it, the name of the argument that a `--`
    would be the value of, or None where argparse must decide.

    It reads exact options (`--opt v`, `--opt=v`, `-n v`, `-n=v`),
    `store_true` flags and positionals in order, applying each spec's
    `type`, `choices`, `default` and `required`.  A `--` given as an exact
    option's value, or filling a positional after the separator, is named
    unless an `=` value before it starts with `-` and is not a negative
    integer: argparse decides that line, as it may report on that value
    first.  Any other token starting with `-`, a separate value starting
    with `-`, `=` on a flag, the separator, a repeat or a failed check
    gives None.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, specs = COMMANDS[argv[0]]
    flagged = {flags[0]: options for flags, options in specs
               if flags[0].startswith("-")}
    named = [flags[0] for flags, _ in specs if flags[0] not in flagged]
    raw, positionals = {}, []
    once = refuse = True  # no option repeated; no `=-x` value seen
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        if token == "--":  # the separator: the rest fill positionals
            for filled, token in enumerate(tokens, len(positionals)):
                if token == "--" and refuse and filled < len(named):
                    return named[filled]
            return None
        name, eq, value = token.partition("=")
        if name not in flagged:
            return None
        once = once and name not in raw
        if flagged[name].get("action") == "store_true":
            if eq:
                return None
            raw[name] = True
            continue
        if not eq:
            value = next(tokens, "-")  # none left: argparse's error
        if value == "--":
            return name if refuse else None
        # argparse takes a negative integer as a value, as no option of any
        # command looks like one; a separate `-x` may be an option to it
        if value.startswith("-") and not re.fullmatch("-[0-9]+", value):
            if not eq:
                return None
            refuse = False
        raw[name] = value
    if not once or len(positionals) != len(named):
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


def parse_args(argv=None):
    """Parse `argv` (default `sys.argv[1:]`).  A line `_read` reads builds
    no parser; a `--` value it names is refused with the command parser's
    `error`, as argparse versions part on such a value; any other line
    (help, usage errors, rare spellings such as abbreviations) goes to the
    parser holding every command, which prints every help and error text."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if isinstance(args, argparse.Namespace):
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
    if args:
        parsers[argv[0]].error(f"argument {args}: expected one argument")
    args = ap.parse_args(argv)
    # Python 3.11's argparse drops a `--` value that `_read` does not name
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
        try:
            args = ap.parse_args(argv)
        except SystemExit as exc:  # help, or a usage error
            code = exc.code if exc.code is not None else 2
        else:
            code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: end as SIGPIPE would, and point
        # stdout at devnull so that the flush at exit stays silent
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except (ParseError, UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
