"""Command-line surface.

Every command prints either stable text or a single JSON document with a
``schema`` field; identical invocations produce byte-identical output.
A command takes only the budget flags it reads.  Each budget comes from its
flag, falling back to the QCHAR_FM_STEPS, QCHAR_PROCESS_STEPS or
QCHAR_ENUM_NODES environment variable, then to the built-in default.

Exit codes: 0 success/agreement, 2 parse or usage error, 3 replay or
sweep mismatch, 4 budget-limited (partial) result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cartan import DiagramError, build_diagram, parse_diagram
from .expansion import (
    DEFAULT_FM_STEPS,
    DEFAULT_PROCESS_STEPS,
    INCONCLUSIVE,
    NOT_SPECIAL,
    fm_algorithm,
)
from .monomials import AWitness, Monomial, format_monomial, parse_monomial
from .smallness import (
    DEFAULT_ENUM_NODES,
    UNDETERMINED,
    Budgets,
    check_small_empirical,
    classify,
    enumerate_dominant_below,
    sweep,
    verify_counterexamples,
)

SCHEMA = "qchar/1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MISMATCH = 3
EXIT_PARTIAL = 4


def _env_default(name, fallback):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError as exc:
        raise DiagramError(f"environment variable {name} must be an integer") from exc
    if value <= 0:
        raise DiagramError(f"environment variable {name} must be positive")
    return value


# Budgets field -> (flag, environment variable, default)
_BUDGETS = {
    "fm_steps": ("--fm-steps", "QCHAR_FM_STEPS", DEFAULT_FM_STEPS),
    "process_steps": ("--process-steps", "QCHAR_PROCESS_STEPS", DEFAULT_PROCESS_STEPS),
    "enum_nodes": ("--enum-nodes", "QCHAR_ENUM_NODES", DEFAULT_ENUM_NODES),
}


def _budget_flag(text) -> int:
    """A budget flag's value, refused at parse time unless positive."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError("budgets must be positive")
    return value


def _add_common(p, budgets=tuple(_BUDGETS), r=False):
    """Add ``--r`` if asked, the flags of the named budgets, and --format."""
    if r:
        p.add_argument("--r", type=int, default=0,
                       help="base spectral power (default 0)")
    for name in budgets:
        p.add_argument(_BUDGETS[name][0], type=_budget_flag, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")


def _budgets(args) -> Budgets:
    """The budgets whose flags the command took; the others keep their
    defaults, and their environment variables are not read."""
    values = {}
    for name, (_, env, default) in _BUDGETS.items():
        if hasattr(args, name):
            flag = getattr(args, name)
            values[name] = flag if flag is not None else _env_default(env, default)
    return Budgets(**values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchar",
        description="Exact q-character computations and the smallness "
                    "classifier for Kirillov-Reshetikhin standard modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="closed-form smallness verdict")
    p.add_argument("--g", "--diagram", dest="g", required=True)
    p.add_argument("--i", dest="i", type=int, required=True)
    p.add_argument("--k", dest="k", type=int, required=True)
    p.add_argument("--empirical", action="store_true",
                   help="also run the character-level verification")
    _add_common(p, r=True)

    p = sub.add_parser("qchar", help="character of a simple module via the "
                                     "Frenkel-Mukhin closure")
    p.add_argument("--g", "--diagram", dest="g", required=True)
    p.add_argument("monomial", help="dominant monomial, e.g. '1_0' or '1_1 3_1 2_4'")
    _add_common(p, ("fm_steps", "process_steps"))

    p = sub.add_parser("enumerate", help="dominant monomials below a string")
    p.add_argument("--g", "--diagram", dest="g", required=True)
    p.add_argument("--i", dest="i", type=int, required=True)
    p.add_argument("--k", dest="k", type=int, required=True)
    _add_common(p, ("enum_nodes",), r=True)

    p = sub.add_parser("verify-remarks",
                       help="replay the built-in non-smallness pipelines")
    _add_common(p)

    p = sub.add_parser("sweep", help="empirical vs closed-form verdict table")
    p.add_argument("--g", "--diagrams", dest="g", required=True,
                   help="comma list with ranges, e.g. 'A1..A4,D4'")
    p.add_argument("--kmax", type=int, required=True)
    _add_common(p, r=True)
    return parser


def _parse_diagram_list(spec):
    out = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo, hi = (parse_diagram(end) for end in chunk.split("..", 1))
            # a finite diagram is named series + rank and has rank nodes
            if lo.name[0] != hi.name[0] or lo.affine or hi.affine:
                raise DiagramError(f"bad diagram range {chunk!r}")
            out += (build_diagram(lo.name[0], rank)
                    for rank in range(len(lo.nodes), len(hi.nodes) + 1))
        else:
            out.append(parse_diagram(chunk))
    return out


def _json_text(doc) -> str:
    """``json.dumps(plain_json(doc), indent=2)``, byte for byte, without its
    slow path.

    With ``indent`` set, CPython renders through its pure-Python encoder.
    Here containers are joined directly, scalars go through ``json.dumps``
    and strings through the C escaper.  A Monomial or AWitness is rendered
    from its sorted key as the list of its factor objects, each factor
    rendered once per depth and reused.
    """
    enc = json.encoder.encode_basestring_ascii
    memo = {}  # (depth, field) -> {factor: rendered factor object}

    def block(opening, closing, items, pad):
        if not items:
            return opening + closing
        inner = "\n" + pad + "  "
        return opening + inner + ("," + inner).join(items) + "\n" + pad + closing

    def factors(key, field, pad):
        inner = pad + "  "
        done = memo.setdefault((inner, field), {})
        out = []
        for f in key:
            s = done.get(f)
            if s is None:
                (i, r), e = f
                s = done[f] = block("{", "}", [f'"node": {json.dumps(i)}',
                                               f'"power": {json.dumps(r)}',
                                               f'"{field}": {json.dumps(e)}'], inner)
            out.append(s)
        return block("[", "]", out, pad)

    def text(v, pad):
        if isinstance(v, dict):
            inner = pad + "  "
            return block("{", "}", [f"{enc(k)}: {text(x, inner)}"
                                    for k, x in v.items()], pad)
        if isinstance(v, (list, tuple)):
            inner = pad + "  "
            return block("[", "]", [text(x, inner) for x in v], pad)
        if isinstance(v, Monomial):
            return factors(v.key, "exponent", pad)
        if isinstance(v, AWitness):
            return factors(v.key, "count", pad)
        return enc(v) if isinstance(v, str) else json.dumps(v)

    return text(doc, "")


def _emit(args, doc, lines):
    """Print ``doc()`` as JSON or ``lines()`` as text, building only that one."""
    if args.format == "json":
        print(_json_text(doc()))
    else:
        for line in lines():
            print(line)


def _cmd_classify(args):
    c = parse_diagram(args.g)
    verdict = classify(c, args.i, args.k)
    if not args.empirical:
        _emit(args, lambda: {"schema": SCHEMA, "command": "classify",
                             "diagram": c.name, "node": args.i, "k": args.k,
                             "theoretical": verdict},
              lambda: [verdict])
        return EXIT_OK
    cell = check_small_empirical(c, args.i, args.k, args.r, _budgets(args))
    emp = cell.empirical
    _emit(args, lambda: {"schema": SCHEMA, "command": "classify", **cell._doc()},
          lambda: [verdict,
                   f"empirical: {emp.verdict} "
                   f"({len(emp.entries)} dominant monomials, "
                   f"{len(emp.not_special)} not special, "
                   f"{len(emp.undetermined)} undetermined, "
                   f"{len(emp.no_candidate)} no candidate)",
                   f"agree: {'yes' if cell.agree else 'no'}"])
    return _empirical_exit([cell])


def _empirical_exit(cells) -> int:
    """3 if a decided empirical verdict (Small or NotSmall) differs from the
    closed form, else 4 if a cell is budget-limited, else 0."""
    if any(c.empirical.verdict not in (UNDETERMINED, c.theoretical) for c in cells):
        return EXIT_MISMATCH
    if any(c.empirical.partial_enumeration or c.empirical.undetermined for c in cells):
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_qchar(args):
    c = parse_diagram(args.g)
    m = parse_monomial(args.monomial)
    if not m.is_dominant():
        raise DiagramError(f"monomial {format_monomial(m)} is not dominant")
    b = _budgets(args)
    rep = fm_algorithm(c, m, budget=b.fm_steps, process_budget=b.process_steps)

    def lines():
        if rep.verdict == NOT_SPECIAL:
            return ["NotSpecial", f"witness {format_monomial(rep.witness)}"] + [
                f"  {format_monomial(s.root)} --[{s.node}]--> "
                f"{format_monomial(s.result)}" for s in rep.chain]
        if rep.verdict == INCONCLUSIVE:
            return ["Inconclusive", rep.diagnostic or ""]
        return [rep.qchar.to_text()]

    _emit(args, lambda: {"schema": SCHEMA, "command": "qchar", "diagram": c.name,
                         **rep._doc()}, lines)
    return EXIT_PARTIAL if rep.verdict == INCONCLUSIVE else EXIT_OK


def _cmd_enumerate(args):
    c = parse_diagram(args.g)
    b = _budgets(args)
    enum = enumerate_dominant_below(c, args.i, args.k, args.r, budget=b.enum_nodes)
    _emit(args, lambda: {
        "schema": SCHEMA, "command": "enumerate", "diagram": c.name,
        "node": args.i, "k": args.k, "r": args.r,
        "count": len(enum.entries), "partial": enum.partial,
        "entries": [{"monomial": m, "text": format_monomial(m), "witness_table": w}
                    for m, w in enum.entries]},
        lambda: [f"{len(enum.entries)} dominant monomials",
                 *(format_monomial(m) for m, _ in enum.entries),
                 *(["WARNING: enumeration budget exhausted (partial)"]
                   if enum.partial else [])])
    return EXIT_PARTIAL if enum.partial else EXIT_OK


def _cmd_verify_remarks(args):
    results = verify_counterexamples(_budgets(args))
    passed = sum(r.passed for r in results)

    def lines():
        out = []
        for r in results:
            out.append(f"{'PASS' if r.passed else 'FAIL'} {r.name}")
            if not r.passed:
                out += [f"  {d}" for d in r.details]
        return out + [f"{passed}/{len(results)} replays passed"]

    _emit(args, lambda: {
        "schema": SCHEMA, "command": "verify-remarks",
        "results": [{"name": r.name, "passed": r.passed, "details": r.details}
                    for r in results],
        "passed": passed, "total": len(results)}, lines)
    return EXIT_OK if passed == len(results) else EXIT_MISMATCH


def _cmd_sweep(args):
    cells = sweep(_parse_diagram_list(args.g), args.kmax, args.r, _budgets(args))
    all_agree = all(cell.agree for cell in cells)
    code = _empirical_exit(cells)
    n = sum(cell.empirical.verdict == UNDETERMINED for cell in cells)
    _emit(args, lambda: {"schema": SCHEMA, "command": "sweep", "kmax": args.kmax,
                         "cells": [cell._doc() for cell in cells],
                         "all_agree": all_agree},
          lambda: [f"{cell.diagram} i={cell.node} k={cell.k}: "
                   f"theoretical={cell.theoretical} "
                   f"empirical={cell.empirical.verdict} "
                   f"agree={'yes' if cell.agree else 'no'}" for cell in cells]
          + ["all cells agree" if all_agree else "DISAGREEMENT found"
             if code == EXIT_MISMATCH else f"no disagreement; {n} cells undetermined"])
    return code


_COMMANDS = {
    "classify": _cmd_classify,
    "qchar": _cmd_qchar,
    "enumerate": _cmd_enumerate,
    "verify-remarks": _cmd_verify_remarks,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (DiagramError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
