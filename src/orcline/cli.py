"""Command-line front end.

Subcommands::

    orcline orc run FILE        execute one interleaving, JSON-lines trace
    orcline orc explore FILE    exhaustive interleaving exploration
    orcline fm validate FILE    check a configuration against a model
    orcline fm products FILE    enumerate all products
    orcline fm count FILE       count products
    orcline mts check FAM PROD  decide the product relation
    orcline mts products FILE   derive all products of a family
    orcline mts dot FILE        GraphViz export
    orcline encode FILE         compile a feature model to Orc
    orcline fixtures ...        list/show/export the bundled corpus

Exit codes: 0 success, 1 a usage error, unreadable, unparseable or too
deeply nested input, or unwritable output, 2 a bound cut the
computation short or memory ran out, 3 well-formed input with a
negative verdict (invalid configuration, not a product, unencodable
model).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus
from . import feature_model as fm_mod
from . import mts as mts_mod
from . import orc_parser
from . import orc_semantics as sem
from . import variability_encoding as enc
from .errors import BoundExceeded
from .orc_ast import Bool, Signal, render_value, value_sort_key

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BOUND = 2
EXIT_NEGATIVE = 3


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_INPUT, f"cannot read {path}: {exc}")


def _emit(text: str, out):
    if out:
        try:
            with open(out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise _CliError(EXIT_INPUT, f"cannot write {out}: {exc}")
    else:
        sys.stdout.write(text)


def _diag(message: str):
    print(message, file=sys.stderr)


def _depth_note(args) -> str:
    return (f"truncated: a definition reached the expansion depth bound "
            f"(--max-depth {args.max_depth})")


def _bounds(args) -> sem.Bounds:
    return sem.Bounds(**{name: getattr(args, name) for name in _BOUND_HELP
                         if hasattr(args, name)})


def _report(path: str, diagnostics, ok: bool):
    """Print the diagnostics and fail unless ``ok``; parentheses nested
    too deeply fail in one line, as a term past the recursion limit."""
    for d in diagnostics:
        if isinstance(d, orc_parser.NestingTooDeep):
            raise _CliError(EXIT_INPUT, f"{path}:{d.span.line}:"
                            f"{d.span.column}: {d.message}")
        _diag(orc_parser.format_diagnostic(d, path))
    if not ok:
        raise _CliError(EXIT_INPUT, f"{path}: parsing failed")


def _load_program(path: str):
    program, diagnostics = orc_parser.parse_program_with_diagnostics(
        _read(path))
    _report(path, diagnostics, program is not None)
    return program


def _load(path: str, parse):
    try:
        return parse(_read(path))
    except orc_parser.ParseError as exc:
        _report(path, exc.diagnostics, False)


def _plain(value):
    """A publication value as plain JSON (tuples become arrays)."""
    if isinstance(value, Signal):
        return "signal"
    if type(value) is Bool:
        return value.value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _json_array(texts: list, depth: int) -> str:
    """``json.dumps(values, indent=2)`` of a list nested ``depth`` deep,
    from the texts of its values."""
    inner = "\n" + "  " * (depth + 1)
    return f"[{inner}{(',' + inner).join(texts)}\n{'  ' * depth}]" \
        if texts else "[]"


def _sorted_outcomes(outcome_set):
    return sorted(outcome_set,
                  key=lambda seq: (len(seq), [value_sort_key(v)
                                              for v in seq]))


# ---------------------------------------------------------------------------
# orc

def _partial(compute) -> tuple:
    """``(compute(), EXIT_OK)``, or when it hits a bound, the partial
    result the bound keeps and EXIT_BOUND, the bound reported."""
    try:
        return compute(), EXIT_OK
    except BoundExceeded as exc:
        _diag(f"truncated: {exc}")
        return exc.partial, EXIT_BOUND


def _cmd_orc_run(args) -> int:
    program = _load_program(args.file)
    trace, code = _partial(lambda: sem.run(program, args.seed,
                                           _bounds(args)))
    lines = [json.dumps(sem.event_to_json(clock, event), sort_keys=True)
             for (clock, event) in trace.events]
    _emit("".join(line + "\n" for line in lines), args.out)
    if trace.truncated and code == EXIT_OK:
        _diag(_depth_note(args))
        code = EXIT_BOUND
    if code == EXIT_OK:
        shown = ", ".join(render_value(v) for v in trace.publications)
        _diag(f"quiescent after {len(trace.events)} events; "
              f"published: {shown if shown else '(nothing)'}")
    return code


def _explore_text(explored) -> str:
    lines = [f"states {len(explored.states)}", f"edges {len(explored.edges)}"]
    parts = [("outcomes", explored.outcomes)]
    if explored.truncated_outcomes:
        parts.append(("truncated outcomes", explored.truncated_outcomes))
    for title, outcomes in parts:
        lines.append(f"{title} {len(outcomes)}")
        lines += ["  {" + ", ".join(map(render_value, seq)) + "}"
                  for seq in _sorted_outcomes(outcomes)]
    return "\n".join(lines) + "\n"


def _explore_json(explored) -> str:
    payload = {
        "states": len(explored.states),
        "edges": len(explored.edges),
        "outcomes": [[_plain(v) for v in seq]
                     for seq in _sorted_outcomes(explored.outcomes)],
        "truncated_outcomes": [
            [_plain(v) for v in seq]
            for seq in _sorted_outcomes(explored.truncated_outcomes)],
        "truncated": explored.truncated,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cmd_orc_explore(args) -> int:
    program = _load_program(args.file)
    # text and json report outcomes, which the reduced graph keeps
    # exactly; lts and dot show the full interleaving graph.
    explored, code = _partial(lambda: sem.explore(
        program, _bounds(args), reduce=args.format in ("text", "json")))
    if args.format == "json":
        text = _explore_json(explored)
    elif args.format == "dot":
        text = mts_mod.export_dot(sem.lts_view(explored), name="explored")
    elif args.format == "lts":
        text = orc_parser.render_lts(sem.lts_view(explored),
                                     name="explored")
    else:
        text = _explore_text(explored)
    _emit(text, args.out)
    if explored.truncated_states and code == EXIT_OK:
        _diag(_depth_note(args))
        code = EXIT_BOUND
    return code


# ---------------------------------------------------------------------------
# fm

def _selection(arg: str) -> list:
    return [part.strip() for part in arg.split(",") if part.strip()]


def _cmd_fm_validate(args) -> int:
    model = _load(args.file, orc_parser.parse_feature_model)
    try:
        violations = fm_mod.validate(model, _selection(args.select))
    except fm_mod.UnknownFeature as exc:
        raise _CliError(EXIT_INPUT, f"unknown feature: {exc}")
    if args.format == "json":
        payload = {"valid": not violations,
                   "violations": [{"rule": v.rule,
                                   "features": sorted(v.features),
                                   "message": v.message}
                                  for v in violations]}
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n",
              args.out)
    else:
        lines = ["VALID"] if not violations else \
            ["INVALID"] + [f"  {v.rule}: {v.message}" for v in violations]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if not violations else EXIT_NEGATIVE


def _cmd_fm_products(args) -> int:
    model = _load(args.file, orc_parser.parse_feature_model)
    if args.format == "json":
        # json.dumps(products, indent=2), quoting each name once.
        out = fm_mod.joined_products(model, ",\n    ", "\n  ],\n  [\n    ",
                                     json.dumps)
        if out:
            out[0] = "[\n  [\n    "
            out.append("\n  ]\n]\n")
    else:
        out = fm_mod.joined_products(model, ", ", "\n  ")
        out.insert(0, f"products {len(out) // 3}")
        out.append("\n")
    _emit("".join(out) or "[]\n", args.out)
    return EXIT_OK


def _cmd_fm_count(args) -> int:
    model = _load(args.file, orc_parser.parse_feature_model)
    _emit(f"{fm_mod.product_count(model)}\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# mts

def _cmd_mts_check(args) -> int:
    family = _load(args.family, orc_parser.parse_mts)
    product = _load(args.product, orc_parser.parse_lts)
    try:
        check = mts_mod.is_product(product, family)
    except mts_mod.ActionMismatch as exc:
        if args.format == "json":
            payload = {"product": False, "witness": None,
                       "failure": {"clause": "alphabet",
                                   "message": str(exc)}}
            _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                  args.out)
        else:
            _emit(f"NOT-A-PRODUCT\n  alphabet: {exc}\n", args.out)
        return EXIT_NEGATIVE
    witness = sorted(check.witness) if check.holds else None
    if args.format == "json":
        failure = None
        if check.failure is not None:
            f = check.failure
            failure = {"clause": f.clause, "product_state": f.product_state,
                       "family_state": f.family_state, "action": f.action,
                       "target": f.target, "message": str(f)}
        payload = {"product": check.holds,
                   "witness": [list(pair) for pair in witness]
                   if witness else None,
                   "failure": failure, "rounds": check.rounds}
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n",
              args.out)
    elif check.holds:
        lines = ["PRODUCT", f"witness ({len(witness)} pairs):"]
        lines += [f"  ({p}, {q})" for (p, q) in witness]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(f"NOT-A-PRODUCT\n  {check.failure.clause}: "
              f"{check.failure}\n", args.out)
    return EXIT_OK if check.holds else EXIT_NEGATIVE


def _cmd_mts_products(args) -> int:
    family = _load(args.file, orc_parser.parse_mts)
    rows, triples = mts_mod.product_rows(family)
    states = {n: sorted(mts_mod.state_names(n)) for n in {n for n, _ in rows}}
    # Each state list and each distinct transition is written once.
    if args.format == "json":
        # json.dumps(payload, indent=2)
        head = {n: '{\n    "states": '
                + _json_array([*map(json.dumps, names)], 2)
                + ',\n    "init": "s0",\n    "trans": '
                for n, names in states.items()}
        line = {code: _json_array([*map(json.dumps, t)], 3)
                for code, t in triples.items()}
        products = [head[n] + _json_array([*map(line.__getitem__, trans)], 2)
                    + "\n  }" for n, trans in rows]
        _emit(_json_array(products, 0) + "\n", args.out)
    else:
        # orc_parser.render_lts of each product, named product<i>
        head = {n: "\nstates " + " ".join(names) + "\ninit s0\n"
                for n, names in states.items()}
        line = {code: "trans %s %s %s\n" % t for code, t in triples.items()}
        _emit("\n".join(f"lts product{i}{head[n]}"
                        + "".join(map(line.__getitem__, trans))
                        for i, (n, trans) in enumerate(rows)), args.out)
    _diag(f"{len(rows)} product(s)")
    return EXIT_OK


def _cmd_mts_dot(args) -> int:
    def parse(src):
        # The header word names the format; without one, the suffix.
        kind = orc_parser.transition_kind(
            src, "lts" if args.file.endswith(".lts") else "mts")
        return kind, (orc_parser.parse_lts if kind == "lts"
                      else orc_parser.parse_mts)(src)

    kind, system = _load(args.file, parse)
    _emit(mts_mod.export_dot(system, name=kind), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# encode / fixtures

def _cmd_encode(args) -> int:
    model = _load(args.file, orc_parser.parse_feature_model)
    plan = enc.default_plan(model)
    if args.plan:
        try:
            plan = enc.plan_from_json(_read(args.plan))
        except ValueError as exc:
            raise _CliError(EXIT_INPUT, f"{args.plan}: bad plan file: {exc}")
    try:
        program = enc.encode(model, plan)
    except (enc.UnsupportedGroupSize, enc.MissingTrigger,
            enc.PlanMismatch) as exc:
        _diag(f"no encoding: {exc}")
        return EXIT_NEGATIVE
    _emit(orc_parser.render_program(program), args.out)
    for note in plan.notes:
        _diag(note)
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    if args.action == "list":
        _emit("".join(name + "\n" for name in corpus.fixture_names()),
              args.out)
        return EXIT_OK
    if args.action == "show":
        if not args.name:
            raise _CliError(EXIT_INPUT, "fixtures show needs a file name")
        try:
            _emit(corpus.fixture_text(args.name), args.out)
        except KeyError as exc:
            raise _CliError(EXIT_INPUT, str(exc.args[0]))
        return EXIT_OK
    if not args.name:
        raise _CliError(EXIT_INPUT,
                        "fixtures export needs a destination directory")
    try:
        written = corpus.export_fixtures(args.name)
    except OSError as exc:
        raise _CliError(EXIT_INPUT, f"cannot write {args.name}: {exc}")
    _emit("".join(path + "\n" for path in written), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

def _bound(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, found {text!r}")
    return int(text)


_BOUND_HELP = {"max_steps": "run-length bound",
               "max_states": "exploration state bound",
               "max_depth": "definition expansion bound"}


def _leaf(sub, path: str, help: str, *arguments, formats=False,
          bounds=()):
    """Add the command ``path`` under ``sub``: each of ``arguments`` (a
    name, or a name or flag with its ``add_argument`` keywords), then
    ``--format`` text or json when it has ``formats``, the ``--max-*``
    flag of each ``Bounds`` field in ``bounds`` and ``--out``.  Its
    ``handler`` is ``path`` joined by ``_``."""
    p = sub.add_parser(path.split()[-1], help=help)
    for arg in arguments:
        name, options = (arg, {}) if isinstance(arg, str) else arg
        p.add_argument(name, **options)
    if formats:
        p.add_argument("--format", choices=("text", "json"), default="text")
    defaults = sem.Bounds()
    for name in bounds:
        default = getattr(defaults, name)
        p.add_argument("--" + name.replace("_", "-"), type=_bound,
                       default=default,
                       help=f"{_BOUND_HELP[name]} (default {default})")
    p.add_argument("--out", default=None,
                   help="write output to this file instead of stdout")
    p.set_defaults(handler=path.replace(" ", "_"))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="orcline",
        description="Workbench for Orc orchestrations, feature models "
                    "and modal transition systems.")
    sub = top.add_subparsers(dest="command", required=True)

    orc = sub.add_parser("orc", help="run or explore Orc programs")
    orc_sub = orc.add_subparsers(dest="action", required=True)
    _leaf(orc_sub, "orc run", "execute one interleaving", "file",
          ("--seed", dict(type=int, default=None,
                          help="randomise scheduling with this seed")),
          bounds=("max_steps", "max_depth"))
    _leaf(orc_sub, "orc explore", "explore all interleavings", "file",
          ("--format", dict(choices=("text", "json", "dot", "lts"),
                            default="text",
                            help="text and json count a reduced graph with "
                                 "the same outcomes; dot and lts show "
                                 "every interleaving")),
          bounds=("max_states", "max_depth"))

    fm = sub.add_parser("fm", help="feature-model commands")
    fm_sub = fm.add_subparsers(dest="action", required=True)
    _leaf(fm_sub, "fm validate", "check one configuration", "file",
          ("--select", dict(required=True,
                            help="comma-separated selected feature names")),
          formats=True)
    _leaf(fm_sub, "fm products", "enumerate all products", "file",
          formats=True)
    _leaf(fm_sub, "fm count", "count products", "file")

    mts = sub.add_parser("mts", help="modal transition system commands")
    mts_sub = mts.add_subparsers(dest="action", required=True)
    _leaf(mts_sub, "mts check", "is PRODUCT a product of FAMILY?", "family",
          "product", formats=True)
    _leaf(mts_sub, "mts products", "derive all products", "file",
          formats=True)
    _leaf(mts_sub, "mts dot", "GraphViz export", "file")

    _leaf(sub, "encode", "compile a feature model to an Orc program", "file",
          ("--plan", dict(default=None,
                          help="JSON file mapping features to sites and "
                               "groups to trigger pairs")))
    _leaf(sub, "fixtures", "bundled example files",
          ("action", dict(choices=("list", "show", "export"))),
          ("name", dict(nargs="?", default=None,
                        help="file name (show) or destination directory "
                             "(export)")))
    return top


# The parser main builds on its first call and reuses after that.
# Parsing leaves it unchanged, and each leaf parser names its command
# function (``handler``), which main looks up when it runs it.
_parser = None


def main(argv=None) -> int:
    """Run one ``orcline`` command line; returns its exit code.  Callers
    may call it repeatedly in one process."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (0) or a usage error (2), and a
        # usage error is bad input: 2 is for a bound hit.
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return globals()[f"_cmd_{args.handler}"](args)
    except _CliError as exc:
        _diag(f"error: {exc}")
        return exc.code
    except BoundExceeded as exc:
        # orc run and orc explore catch their own, to print the partial
        # result first.
        _diag(f"truncated: {exc}")
        return EXIT_BOUND
    except RecursionError:
        # The parser and every tree walker recurse into subterms, so a
        # term nested too deeply overflows the interpreter stack; the
        # branches of a | are a loop, so width never does.
        _diag("error: input is too deeply nested to process (Python "
              f"recursion limit {sys.getrecursionlimit()})")
        return EXIT_INPUT
    except MemoryError:
        # Like a bound hit, memory cut the computation short.
        _diag("error: out of memory before the computation finished")
        return EXIT_BOUND


if __name__ == "__main__":
    sys.exit(main())
