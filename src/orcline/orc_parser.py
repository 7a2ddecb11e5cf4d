"""Concrete syntax: Orc programs, feature models and (modal) transition
systems, with parsers and pretty-printers that round-trip.

Orc expressions, tightest to loosest binding::

    expr      := otherwise
    otherwise := asym (";" asym)*            -- groups left
    asym      := par ("<" NAME? "<" asym)?   -- groups right
    par       := seq ("|" seq)*              -- groups left
    seq       := prim (">" NAME? ">" seq)?   -- groups right
    prim      := NAME "(" args ")" | NAME | "0" | "(" expr ")"

A program is zero or more ``site``/``def`` declaration lines followed
by the goal expression; a newline inside parentheses does not end a
declaration.  ``--`` starts a comment in every format.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from . import feature_model as fm
from . import mts as mts_mod
from .orc_ast import (
    SIGNAL, Arg, Asymmetric, DefCall, Definition, Expr, Otherwise, Parallel,
    Program, Sequential, SiteCall, SiteSpec, Var, free_vars, render_expr,
    render_value,
)

RESERVED = frozenset(
    ["def", "site", "silent", "delay", "responds", "true", "false", "signal"])

#: A name token: a site, definition, variable, state or feature name.
NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

_FM_KEYWORDS = frozenset(
    ["family", "mandatory", "optional", "alternative", "requires",
     "excludes"])


@dataclass(frozen=True)
class SourceSpan:
    line: int      # 1-based
    column: int    # 1-based
    length: int


@dataclass(frozen=True)
class ParseDiagnostic:
    span: SourceSpan
    message: str
    severity: str  # "error" | "warning"


def format_diagnostic(d: ParseDiagnostic, filename: str = "<input>") -> str:
    return (f"{filename}:{d.span.line}:{d.span.column}: "
            f"{d.severity}: {d.message}")


class ParseError(Exception):
    """Raised when parsing produced at least one Error diagnostic."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        errors = [d for d in self.diagnostics if d.severity == "error"]
        head = errors[0] if errors else self.diagnostics[0]
        extra = f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""
        super().__init__(
            f"{head.span.line}:{head.span.column}: {head.message}{extra}")


class _Bail(Exception):
    """Internal: abandon the current statement after a hard error."""


@dataclass(frozen=True)
class _Token:
    kind: str      # "name" | "int" | "string" | "nl" | "eof" | one-char op
    text: str
    value: object
    line: int
    col: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col, max(1, len(self.text)))

    @property
    def shown(self) -> str:
        """The token as a diagnostic's "found" text."""
        return "end of input" if self.kind in ("nl", "eof") else self.text


_TOKEN_RE = re.compile(
    r"""(?P<comment>--[^\n]*)
      | (?P<ws>[ \t\r]+)
      | (?P<nl>\n)
      | (?P<string>"(?:[^"\\\n]|\\.)*")
      | (?P<int>-?[0-9]+)
      | (?P<name>%s)
      | (?P<op>[(){}|;,<>=])
    """ % NAME.pattern,
    re.VERBOSE,
)


def _lex(src: str, diags: list) -> list:
    """Tokens of ``src``, ending in an eof token.  A newline is a token
    only outside parentheses, so a declaration continues across one
    inside them; a stray ')' leaves the depth at 0."""
    tokens = []
    pos, line, line_start, depth = 0, 1, 0, 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            col = pos - line_start + 1
            diags.append(ParseDiagnostic(
                SourceSpan(line, col, 1),
                f"unexpected character {src[pos]!r}", "error"))
            pos += 1
            continue
        kind = m.lastgroup
        text = m.group()
        col = pos - line_start + 1
        if kind == "nl":
            if depth == 0:
                tokens.append(_Token("nl", "\n", None, line, col))
            line += 1
            line_start = m.end()
        elif kind == "string":
            try:
                value = json.loads(text)
            except ValueError:
                diags.append(ParseDiagnostic(
                    SourceSpan(line, col, len(text)),
                    "invalid string escape", "error"))
                value = ""
            tokens.append(_Token("string", text, value, line, col))
        elif kind == "int":
            tokens.append(_Token("int", text, int(text), line, col))
        elif kind == "name":
            tokens.append(_Token("name", text, text, line, col))
        elif kind == "op":
            if text == "(":
                depth += 1
            elif text == ")":
                depth = max(0, depth - 1)
            tokens.append(_Token(text, text, text, line, col))
        pos = m.end()
    tokens.append(_Token("eof", "", None, line,
                         len(src) - line_start + 1))
    return tokens


class _Cursor:
    def __init__(self, tokens, diags):
        self.tokens = tokens
        self.i = 0
        self.diags = diags

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.tokens[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind) -> bool:
        return self.peek().kind == kind

    def at_end(self) -> bool:
        """At the newline that ends a declaration, or at the end of input."""
        return self.peek().kind in ("nl", "eof")

    def error(self, span, message):
        self.diags.append(ParseDiagnostic(span, message, "error"))

    def expect(self, kind, what) -> _Token:
        if self.at(kind):
            return self.advance()
        t = self.peek()
        self.error(t.span, f"expected {what}, found {t.shown!r}")
        raise _Bail()

    def name(self, what, role) -> _Token:
        """Expect a name; a reserved word is reported as one that cannot
        ``role`` (e.g. "name a site") and still returned."""
        t = self.expect("name", what)
        if t.text in RESERVED:
            self.error(t.span, f"{t.text!r} is reserved and cannot {role}")
        return t


class _ExprParser(_Cursor):
    """Parses a program's declarations and goal on one token stream.

    A call to one of ``defnames`` becomes a ``DefCall``, any other call
    a ``SiteCall``.  Records every call (for definition arity checks)
    and every variable occurrence (for unbound-variable warnings).
    """

    def __init__(self, tokens, diags, defnames):
        super().__init__(tokens, diags)
        self.defnames = defnames
        self.calls = []       # (name, number of arguments, span)
        self.var_spans = []   # (name, span)

    def parse(self) -> Expr:
        """One expression, up to the end of its declaration or input."""
        e = self.otherwise()
        if not self.at_end():
            t = self.peek()
            self.error(t.span, f"unexpected {t.text!r} after expression")
            raise _Bail()
        return e

    def otherwise(self) -> Expr:
        e = self.asym()
        while self.at(";"):
            self.advance()
            e = Otherwise(e, self.asym())
        return e

    def asym(self) -> Expr:
        left = self.par()
        if self.at("<"):
            self.advance()
            binder = self._binder()
            self.expect("<", "'<' closing the binder")
            return Asymmetric(left, binder, self.asym())
        return left

    def par(self) -> Expr:
        branches = [self.seq()]
        while self.at("|"):
            self.advance()
            branches.append(self.seq())
        return Parallel(*branches) if len(branches) > 1 else branches[0]

    def seq(self) -> Expr:
        left = self.prim()
        if self.at(">"):
            self.advance()
            binder = self._binder()
            self.expect(">", "'>' closing the binder")
            return Sequential(left, binder, self.seq())
        return left

    def _binder(self):
        if self.at("name"):
            return self.name("a binder name", "be a binder name").text
        return None

    def prim(self) -> Expr:
        t = self.peek()
        if t.kind == "(":
            self.advance()
            e = self.otherwise()
            self.expect(")", "')'")
            return e
        if t.kind == "int":
            self.advance()
            if t.value != 0:
                self.error(t.span, f"a bare number is not an expression; "
                                   f"write let({t.text}) to publish it")
            if self.at("("):
                self.advance()
                if not self.at(")"):
                    self.error(self.peek().span,
                               "the halt site 0 takes no arguments")
                    while not self.at(")") and not self.at_end():
                        self.advance()
                self.expect(")", "')'")
            return SiteCall("0", ())
        if t.kind == "string":
            self.advance()
            self.error(t.span, "a bare string is not an expression; "
                               "write let(...) to publish it")
            return SiteCall("0", ())
        if t.kind == "name":
            if t.text in ("true", "false", "signal"):
                self.advance()
                self.error(t.span, f"the literal {t.text!r} is not an "
                                   f"expression; write let({t.text})")
                return SiteCall("0", ())
            if t.text in RESERVED:
                self.advance()
                self.error(t.span, f"{t.text!r} is a reserved word")
                return SiteCall("0", ())
            self.advance()
            args = self._args() if self.at("(") else ()
            self.calls.append((t.text, len(args), t.span))
            if t.text in self.defnames:
                return DefCall(t.text, args)
            return SiteCall(t.text, args)
        self.error(t.span, f"expected an expression, found {t.shown!r}")
        raise _Bail()

    def _args(self) -> tuple:
        self.expect("(", "'('")
        args = []
        if not self.at(")"):
            args.append(self._arg())
            while self.at(","):
                self.advance()
                args.append(self._arg())
        self.expect(")", "')' closing the argument list")
        return tuple(args)

    def _arg(self) -> Arg:
        t = self.peek()
        if t.kind != "name" or t.text in _LITERALS:
            return _literal_arg(self, "an argument")
        self.advance()
        if self.at("("):
            self.error(t.span,
                       "site calls cannot be nested in argument "
                       "position; bind the inner call with >x> or <x<")
            self._skip_balanced()
        elif t.text in RESERVED:
            self.error(t.span, f"{t.text!r} is reserved and cannot be "
                               f"an argument")
        else:
            self.var_spans.append((t.text, t.span))
        return Var(t.text)

    def _skip_balanced(self):
        depth = 0
        while not self.at_end():
            t = self.advance()
            if t.kind == "(":
                depth += 1
            elif t.kind == ")":
                depth -= 1
                if depth == 0:
                    return


_LITERALS = {"true": True, "false": False, "signal": SIGNAL}


def _literal_arg(cur: _Cursor, what: str = "a literal value"):
    t = cur.peek()
    if t.kind in ("int", "string"):
        cur.advance()
        return t.value
    if t.kind == "name" and t.text in _LITERALS:
        cur.advance()
        return _LITERALS[t.text]
    cur.error(t.span, f"expected {what}, found {t.shown!r}")
    raise _Bail()


def _parse_site_decl(p: _ExprParser, sites: dict):
    p.advance()  # "site"
    name_tok = p.name("a site name", "name a site")
    if name_tok.text in sites:
        p.error(name_tok.span, f"site {name_tok.text!r} is declared twice")
    delay = 0
    responses = (SIGNAL,)
    if p.at("name") and p.peek().text == "silent":
        p.advance()
        responses = ()
    else:
        if p.at("name") and p.peek().text == "delay":
            p.advance()
            delay_tok = p.expect("int", "a delay in ticks")
            if delay_tok.value < 0:
                p.error(delay_tok.span, "delay cannot be negative")
            delay = max(0, delay_tok.value)
        if p.at("name") and p.peek().text == "responds":
            p.advance()
            values = [_literal_arg(p)]
            while p.at(","):
                p.advance()
                values.append(_literal_arg(p))
            responses = tuple(values)
    if not p.at_end():
        p.error(p.peek().span,
                f"unexpected {p.peek().text!r} in site declaration")
        raise _Bail()
    sites[name_tok.text] = SiteSpec(responses, delay)


def _parse_def_decl(p: _ExprParser, defs: dict):
    p.advance()  # "def"
    name_tok = p.name("a definition name", "name a definition")
    if name_tok.text in defs:
        p.error(name_tok.span,
                f"definition {name_tok.text!r} is declared twice")
    p.expect("(", "'(' starting the parameter list")
    params = []
    if not p.at(")"):
        while True:
            t = p.name("a parameter name", "be a parameter")
            if t.text in params:
                p.error(t.span, f"duplicate parameter {t.text!r}")
            params.append(t.text)
            if not p.at(","):
                break
            p.advance()
    p.expect(")", "')' closing the parameter list")
    p.expect("=", "'=' before the definition body")
    defs[name_tok.text] = Definition(tuple(params), p.parse())


def parse_program_with_diagnostics(src: str):
    """Parse a full program; returns (Program or None, diagnostics)."""
    diags: list = []
    tokens = _lex(src, diags)
    # Every definition's name is known before any body is parsed, so a
    # call to a definition declared further down is a DefCall too.
    # "def" is reserved: anywhere but in a head it is an error.
    defnames = frozenset(
        name.text for (word, name) in zip(tokens, tokens[1:])
        if word.text == "def" and word.kind == "name" and name.kind == "name")
    p = _ExprParser(tokens, diags, defnames)
    defs, sites, goal = {}, {}, None
    try:
        while True:
            while p.at("nl"):
                p.advance()
            t = p.peek()
            if t.kind != "name" or t.text not in ("site", "def"):
                break
            try:
                if t.text == "site":
                    _parse_site_decl(p, sites)
                else:
                    _parse_def_decl(p, defs)
            except _Bail:
                while not p.at_end():
                    p.advance()
        # The goal runs to the end of the input, across newlines.
        p.tokens = [t for t in p.tokens[p.i:] if t.kind != "nl"]
        p.i = 0
        if p.at("eof"):
            p.error(p.peek().span, "a program needs a goal expression")
        else:
            goal = p.parse()
    except _Bail:
        pass

    for name in sorted(set(defs) & set(sites)):
        diags.append(ParseDiagnostic(
            SourceSpan(1, 1, 1),
            f"{name!r} is both a declared site and a definition",
            "error"))
    for (name, nargs, span) in p.calls:
        if name in defs and nargs != len(defs[name].params):
            diags.append(ParseDiagnostic(
                span,
                f"definition {name!r} takes {len(defs[name].params)} "
                f"argument(s), called with {nargs}", "error"))

    if any(d.severity == "error" for d in diags) or goal is None:
        return None, diags

    unbound = set(free_vars(goal))
    for d in defs.values():
        unbound |= set(free_vars(d.body)) - set(d.params)
    reported = set()
    for (name, span) in p.var_spans:
        if name in unbound and name not in reported:
            reported.add(name)
            diags.append(ParseDiagnostic(
                span,
                f"variable {name!r} is never bound; calls using it "
                f"will block forever", "warning"))

    return Program(goal, defs, sites), diags


def parse_program(src: str) -> Program:
    """Parse a program, raising ParseError on any Error diagnostic."""
    program, diags = parse_program_with_diagnostics(src)
    if program is None:
        raise ParseError(diags)
    return program


def parse_expr(src: str) -> Expr:
    """Parse a single goal expression (no declarations)."""
    return parse_program(src).goal


# ---------------------------------------------------------------------------
# Rendering

def _render_site_decl(name: str, spec: SiteSpec) -> str:
    if not spec.responses:
        return f"site {name} silent"
    parts = [f"site {name}"]
    if spec.delay:
        parts.append(f"delay {spec.delay}")
    if spec.responses != (SIGNAL,):
        rendered = ", ".join(render_value(v) for v in spec.responses)
        parts.append(f"responds {rendered}")
    return " ".join(parts)


def render_program(p: Program) -> str:
    lines = []
    for name, spec in p.site_env.items():
        lines.append(_render_site_decl(name, spec))
    for name, d in p.definitions.items():
        params = ", ".join(d.params)
        lines.append(f"def {name}({params}) = {render_expr(d.body)}")
    lines.append(render_expr(p.goal))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Feature-model format

def _fm_name(cur: _Cursor, what: str) -> _Token:
    t = cur.expect("name", what)
    if t.text in _FM_KEYWORDS:
        cur.error(t.span, f"{t.text!r} is a keyword and cannot be "
                          f"a feature name")
    return t


def _fm_items(cur: _Cursor, builder: fm.ModelBuilder, parent: str):
    while True:
        t = cur.peek()
        if t.kind != "name" or t.text not in _FM_KEYWORDS:
            return
        if t.text in ("mandatory", "optional"):
            cur.advance()
            name = _fm_name(cur, "a feature name")
            try:
                if t.text == "mandatory":
                    builder.mandatory(parent, name.text)
                else:
                    builder.optional(parent, name.text)
            except ValueError as exc:
                cur.error(name.span, str(exc))
            if cur.at("{"):
                cur.advance()
                _fm_items(cur, builder, name.text)
                cur.expect("}", "'}' closing the feature block")
        elif t.text == "alternative":
            # Each member is registered, then its block read in place;
            # the first error in a group ends the parse.
            cur.advance()
            cur.expect("{", "'{' opening the alternative group")
            gid = builder.group(parent)
            members = 0
            while True:
                name = _fm_name(cur, "a member feature name")
                try:
                    builder.member(gid, name.text)
                except ValueError as exc:
                    cur.error(name.span, str(exc))
                    raise _Bail()
                members += 1
                if cur.at("{"):
                    cur.advance()
                    _fm_items(cur, builder, name.text)
                    cur.expect("}", f"'}}' closing the block of member "
                                    f"{name.text!r}")
                if not cur.at(","):
                    break
                cur.advance()
            cur.expect("}", "'}' closing the alternative group")
            if members < 2:
                cur.error(t.span,
                          "an alternative group needs at least two members")
                raise _Bail()
        elif t.text in ("requires", "excludes"):
            cur.advance()
            a = _fm_name(cur, "a feature name")
            b = _fm_name(cur, "a feature name")
            if t.text == "requires":
                builder.requires(a.text, b.text)
            else:
                builder.excludes(a.text, b.text)
        else:  # "family" nested — not an item
            cur.error(t.span, f"unexpected {t.text!r} here")
            raise _Bail()


def parse_feature_model(src: str) -> fm.FeatureModel:
    diags: list = []
    tokens = [t for t in _lex(src, diags) if t.kind != "nl"]
    cur = _Cursor(tokens, diags)
    model = None
    try:
        head = cur.expect("name", "'family'")
        if head.text != "family":
            cur.error(head.span, f"expected 'family', found {head.text!r}")
            raise _Bail()
        root = _fm_name(cur, "the family name")
        cur.expect("{", "'{' opening the family block")
        builder = fm.ModelBuilder(root.text)
        _fm_items(cur, builder, root.text)
        cur.expect("}", "'}' closing the family block")
        if not cur.at("eof"):
            cur.error(cur.peek().span,
                      f"unexpected {cur.peek().text!r} after the family "
                      f"block")
        try:
            model = builder.build()
        except fm.UnknownFeature as exc:
            cur.error(SourceSpan(1, 1, 1),
                      f"constraint references unknown feature {exc}")
    except _Bail:
        pass
    if any(d.severity == "error" for d in diags) or model is None:
        raise ParseError(diags)
    return model


def render_feature_model(model: fm.FeatureModel) -> str:
    lines = [f"family {model.root} {{"]

    def emit(name: str, depth: int):
        indent = "  " * depth
        done_groups = set()
        for child in model.features[name].children:
            f = model.features[child]
            if f.kind == "member":
                if f.group in done_groups:
                    continue
                done_groups.add(f.group)
                group = model.groups[f.group]
                if all(not model.features[m].children
                       for m in group.members):
                    members = ", ".join(group.members)
                    lines.append(f"{indent}alternative {{ {members} }}")
                    continue
                lines.append(f"{indent}alternative {{")
                last = len(group.members) - 1
                for i, m in enumerate(group.members):
                    comma = "," if i < last else ""
                    if model.features[m].children:
                        lines.append(f"{indent}  {m} {{")
                        emit(m, depth + 2)
                        lines.append(f"{indent}  }}{comma}")
                    else:
                        lines.append(f"{indent}  {m}{comma}")
                lines.append(f"{indent}}}")
            elif model.features[child].children:
                lines.append(f"{indent}{f.kind} {child} {{")
                emit(child, depth + 1)
                lines.append(f"{indent}}}")
            else:
                lines.append(f"{indent}{f.kind} {child}")

    emit(model.root, 1)
    for c in model.constraints:
        word = "requires" if isinstance(c, fm.Requires) else "excludes"
        lines.append(f"  {word} {c.a} {c.b}")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Transition-system formats (line oriented)

def _ts_lines(src: str):
    for lineno, raw in enumerate(src.splitlines(), start=1):
        line = raw.split("--", 1)[0]
        tokens = [(m.group(), m.start() + 1)
                  for m in re.finditer(r"\S+", line)]
        if tokens:
            yield lineno, tokens


def _parse_transition_file(src: str, kind: str):
    """Shared reader for .mts (must/may lines) and .lts (trans lines)."""
    diags: list = []
    states: list = []
    init = None
    triples: dict = {"must": set(), "may": set(), "trans": set()}
    allowed = ("must", "may") if kind == "mts" else ("trans",)
    header_seen = False

    def err(lineno, col, msg):
        diags.append(ParseDiagnostic(SourceSpan(lineno, col, 1), msg,
                                     "error"))

    for lineno, tokens in _ts_lines(src):
        word, col = tokens[0]
        if not header_seen:
            if word != kind or len(tokens) != 2:
                err(lineno, col,
                    f"expected header '{kind} NAME' on the first line")
            header_seen = True
            if word == kind:
                continue
        if word == "states":
            for (name, c) in tokens[1:]:
                if name in states:
                    err(lineno, c, f"state {name!r} declared twice")
                else:
                    states.append(name)
        elif word == "init":
            if len(tokens) != 2:
                err(lineno, col, "expected 'init STATE'")
                continue
            if init is not None:
                err(lineno, col, "init state declared twice")
            init = tokens[1][0]
            if init not in states:
                err(lineno, tokens[1][1],
                    f"init state {init!r} is not declared")
        elif word in allowed:
            if len(tokens) != 4:
                err(lineno, col, f"expected '{word} SRC ACTION DST'")
                continue
            (src_s, c1), (action, _), (dst_s, c3) = tokens[1:]
            ok = True
            for (s, c) in ((src_s, c1), (dst_s, c3)):
                if s not in states:
                    err(lineno, c, f"state {s!r} is not declared")
                    ok = False
            if ok:
                triples[word].add((src_s, action, dst_s))
        else:
            err(lineno, col, f"unknown directive {word!r}")

    if init is None:
        diags.append(ParseDiagnostic(SourceSpan(1, 1, 1),
                                     "missing init state", "error"))
    if any(d.severity == "error" for d in diags):
        raise ParseError(diags)
    return frozenset(states), init, triples


def parse_mts(src: str) -> mts_mod.Mts:
    states, init, triples = _parse_transition_file(src, "mts")
    return mts_mod.Mts(states, frozenset(), init,
                       frozenset(triples["must"]),
                       frozenset(triples["may"]))


def parse_lts(src: str) -> mts_mod.Lts:
    states, init, triples = _parse_transition_file(src, "lts")
    return mts_mod.Lts(states, frozenset(), init,
                       frozenset(triples["trans"]))


def render_mts(m: mts_mod.Mts, name: str = "family") -> str:
    lines = [f"mts {name}",
             "states " + " ".join(sorted(m.states)),
             f"init {m.init}"]
    for (src_s, action, dst_s) in sorted(m.must):
        lines.append(f"must {src_s} {action} {dst_s}")
    for (src_s, action, dst_s) in sorted(m.may - m.must):
        lines.append(f"may {src_s} {action} {dst_s}")
    return "\n".join(lines) + "\n"


def render_lts(l: mts_mod.Lts, name: str = "product") -> str:
    lines = [f"lts {name}",
             "states " + " ".join(sorted(l.states)),
             f"init {l.init}"]
    for (src_s, action, dst_s) in sorted(l.trans):
        lines.append(f"trans {src_s} {action} {dst_s}")
    return "\n".join(lines) + "\n"
