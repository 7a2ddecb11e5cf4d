"""Seeded random generators and brute-force oracles shared by tests."""

from __future__ import annotations

import random

from orcline import Lts, ModelBuilder, Mts
from orcline.feature_model import FeatureModel, is_valid
from orcline.orc_ast import (
    FALSE, SIGNAL, TRUE, Asymmetric, Otherwise, Parallel, Sequential,
    SiteCall, Var,
)
from orcline.orc_semantics import _successors

SITES = ("A", "B", "C", "D", "E")
VALUES = (0, 1, 7, TRUE, FALSE, SIGNAL, "hi")


def _bind(scope: tuple, binder) -> tuple:
    """``scope`` with ``binder`` appended unless absent or already there;
    the order never depends on string hashing, so one seed gives one
    program in every process."""
    if binder is None or binder in scope:
        return scope
    return scope + (binder,)


def random_expr(rng: random.Random, depth: int = 4, scope=(),
                sites: tuple = SITES):
    """A closed random expression calling ``sites``: variables only come
    from enclosing binders, so every generated term parses back without
    warnings."""
    if depth == 0 or rng.random() < 0.3:
        args = []
        for _ in range(rng.randrange(3)):
            if scope and rng.random() < 0.4:
                args.append(Var(rng.choice(scope)))
            else:
                args.append(rng.choice(VALUES))
        return SiteCall(rng.choice(sites), tuple(args))
    kind = rng.randrange(4)
    if kind == 0:
        return Parallel(random_expr(rng, depth - 1, scope, sites),
                        random_expr(rng, depth - 1, scope, sites))
    if kind == 1:
        binder = None if rng.random() < 0.3 else f"v{rng.randrange(4)}"
        inner = _bind(scope, binder)
        return Sequential(random_expr(rng, depth - 1, scope, sites), binder,
                          random_expr(rng, depth - 1, inner, sites))
    if kind == 2:
        binder = None if rng.random() < 0.3 else f"v{rng.randrange(4)}"
        inner = _bind(scope, binder)
        return Asymmetric(random_expr(rng, depth - 1, inner, sites), binder,
                          random_expr(rng, depth - 1, scope, sites))
    return Otherwise(random_expr(rng, depth - 1, scope, sites),
                     random_expr(rng, depth - 1, scope, sites))


def random_feature_model(rng: random.Random, max_features: int = 16,
                         max_constraints: int = 6, root: str = "F0",
                         min_features: int = 1,
                         optional: float = 0.4) -> FeatureModel:
    """A random tree grown feature by feature under ``root``, with
    alternative groups (a fifth of the draws), optional features (the
    ``optional`` share) and cross-tree constraints between random
    distinct features; it has ``min_features`` to ``max_features - 1``
    features."""
    builder = ModelBuilder(root)
    names = [root]
    count = rng.randrange(min_features, max_features)
    i = 1
    while i < count:
        parent = rng.choice(names)
        kind = rng.random()
        if kind < 0.2 and i + 2 <= count:
            members = (f"F{i}", f"F{i + 1}")
            builder.alternative(parent, *members)
            names.extend(members)
            i += 2
        elif kind < 1 - optional:
            builder.mandatory(parent, f"F{i}")
            names.append(f"F{i}")
            i += 1
        else:
            builder.optional(parent, f"F{i}")
            names.append(f"F{i}")
            i += 1
    for _ in range(rng.randrange(max_constraints + 1)):
        if len(names) < 2:
            break
        a, b = rng.sample(names, 2)
        if rng.random() < 0.5:
            builder.requires(a, b)
        else:
            builder.excludes(a, b)
    return builder.build()


def wide_feature_model(rng: random.Random) -> FeatureModel:
    """8 to 16 features, mostly optional and under random parents, so
    optional subtrees nest, with one alternative group of two or three
    members, and 1 to 4 constraints whose second end is as often a
    group member, or a feature under an optional ancestor, as any
    feature."""
    builder = ModelBuilder("W0")
    names = ["W0"]
    count = rng.randint(8, 16)
    group_at = rng.randrange(1, count - 2)
    while len(names) < count:
        parent = rng.choice(names)
        if len(names) == group_at:
            members = [f"W{len(names) + j}" for j in range(rng.choice((2, 3)))]
            builder.alternative(parent, *members)
            names += members
        else:
            names.append(f"W{len(names)}")
            (builder.optional if rng.random() < 0.85
             else builder.mandatory)(parent, names[-1])
    features = builder.build().features

    def under_optional(name):
        while (name := features[name].parent) is not None:
            if features[name].kind == "optional":
                return True
        return False

    targets = ([n for n in names if features[n].kind == "member"],
               [n for n in names if under_optional(n)] or names, names)
    for _ in range(rng.randint(1, 4)):
        a = rng.choice(names)
        b = rng.choice(rng.choice(targets))
        if a != b:
            (builder.requires if rng.random() < 0.5 else builder.excludes)(a, b)
    return builder.build()


def brute_force_products(model: FeatureModel) -> set:
    """Oracle: filter every subset of the feature set with the
    rule-by-rule validator."""
    names = sorted(model.features)
    out = set()
    for mask in range(1 << len(names)):
        selection = frozenset(names[i] for i in range(len(names))
                              if mask >> i & 1)
        if is_valid(model, selection):
            out.add(selection)
    return out


def random_mts(rng: random.Random, max_states: int = 6,
               max_may_only: int = 10, actions=("a", "b", "c")) -> Mts:
    n = rng.randrange(1, max_states + 1)
    states = [f"q{i}" for i in range(n)]
    triples = [(s, a, d) for s in states for a in actions for d in states]
    rng.shuffle(triples)
    must = frozenset(triples[:rng.randrange(0, 2 * n)])
    rest = [t for t in triples if t not in must]
    may_only = frozenset(rest[:rng.randrange(0, max_may_only + 1)])
    return Mts(frozenset(states), frozenset(actions), states[0],
               must, must | may_only)


def nested_mts(rng: random.Random, min_optional: int = 8,
               max_optional: int = 14, actions="ab") -> Mts:
    """A family whose optional transitions nest: each new state is the
    target of an optional transition (now and then of a must one out of
    a state that only optional ones reach), and later transitions leave
    recent states, so which optional transitions a candidate reaches
    depends on those it took.  Some transitions lead back to earlier
    states, and the state names are drawn at random, so the visit order
    of a candidate need not follow the order the states were made in.
    Every one of the ``min_optional``..``max_optional`` optional
    transitions is reachable under may.  Labels are drawn from
    ``actions``."""
    k = rng.randrange(min_optional, max_optional + 1)
    names = [f"q{i}" for i in rng.sample(range(100), 60)]
    states = [names.pop()]
    must, optional = set(), set()
    while len(optional) < k:
        src = rng.choice(states[-3:] if rng.random() < 0.7 else states)
        if len(states) > 1 and rng.random() < 0.3:
            dst = rng.choice(states)
        else:
            dst = names.pop()
            states.append(dst)
        t = (src, rng.choice(actions), dst)
        if t in must or t in optional:
            continue
        (must if src != states[0] and rng.random() < 0.2
         else optional).add(t)
    return Mts(frozenset(states), frozenset(actions), states[0],
               frozenset(must), frozenset(must | optional))


# Word separators and line breaks of the transition-system formats:
# str.split and str.splitlines take every one of them.
SPACES = (" ", "  ", "\t", " \t ", "\xa0", "\u3000")
BREAKS = ("\n", "\n", "\n", "\r\n", "\f", "\v", "\x1c", "\u2028")


def transition_file(rng: random.Random, kind: str) -> str:
    """The text of a .mts (``kind`` "mts") or .lts file, with words
    apart by tabs, runs of spaces and Unicode spaces, lines ended by
    every kind of line break (form feeds among them), ``--`` comments
    and blank lines.  Now and then it holds a fault the reader reports:
    a wrong or missing header, a state declared twice (on one
    ``states`` line or two), an init that is missing, given twice or
    undeclared, a transition to an undeclared state, a directive of the
    other format, or a line with a word too many or too few."""
    states = [f"q{i}" for i in range(rng.randrange(1, 7))]
    words = ("must", "may") if kind == "mts" else ("trans",)
    other = "trans" if kind == "mts" else "must"
    # Half the files are faultless; the rest take each fault at random.
    odds = rng.choice((0, 1))
    lines = []
    if rng.random() >= 0.1 * odds:
        lines.append([rng.choice((kind,) * 3 + (other,) * odds), "Name"][
            :rng.choice((2,) * 4 + (1,) * odds)])
    cut = rng.randrange(1, len(states) + 1)
    for part in (states[:cut], states[cut:]):
        if part:
            if rng.random() < 0.15 * odds:
                part = part + [rng.choice(states[:cut])]
            lines.append(["states"] + part)
    init = ["init", "zz" if rng.random() < 0.1 * odds
            else rng.choice(states)]
    lines += [init] * rng.choice((1,) * 7 + (0, 2) * odds)
    for _ in range(rng.randrange(0, 9)):
        dst = "zz" if rng.random() < 0.07 * odds else rng.choice(states)
        line = [rng.choice(words), rng.choice(states), rng.choice("ab"), dst]
        if rng.random() < 0.05 * odds:
            line[0] = other
        if rng.random() < 0.05 * odds:
            line = line[:rng.randrange(1, 4)] if rng.random() < 0.5 \
                else line + ["x"]
        lines.append(line)
    text = []
    for line in lines:
        if rng.random() < 0.2:
            text.append(rng.choice(("", "-- a note", " \t")))
            text.append(rng.choice(BREAKS))
        text.append(rng.choice(("", "", " ", "\t", "\xa0")))
        text.append(rng.choice(SPACES).join(line))
        text.append(rng.choice(("", "", "\t", "-- note --x", " -- y z")))
        text.append(rng.choice(BREAKS))
    return "".join(text)


def random_lts(rng: random.Random, max_states: int = 5) -> Lts:
    n = rng.randrange(1, max_states + 1)
    states = [f"p{i}" for i in range(n)]
    actions = ["a", "b", "c"]
    triples = [(s, a, d) for s in states for a in actions for d in states]
    rng.shuffle(triples)
    return Lts(frozenset(states), frozenset(actions), states[0],
               frozenset(triples[:rng.randrange(0, 3 * n)]))


def ended_paths(explored, limit: int = 200000):
    """Every event path from the start that ends where the explorer
    ends one, by brute force over an explored (acyclic) graph.

    Yields (events, cut) pairs: cut is False for a path ending in a
    halted state and True for one ending in a truncated state, which
    may still have successors when the state bound cut it off."""
    succ = {}
    for (i, ev, j) in explored.edges:
        succ.setdefault(i, []).append((ev, j))
    stack = [(0, [])]
    seen = 0
    while stack:
        node, path = stack.pop()
        seen += 1
        if seen > limit:
            raise AssertionError("path enumeration exploded")
        if node in explored.halted_states:
            yield path, False
        if node in explored.truncated_states:
            yield path, True
        for (ev, nxt) in succ.get(node, ()):
            stack.append((nxt, path + [ev]))


def maximal_paths(explored, limit: int = 200000):
    """Every maximal event path through an explored (acyclic) graph.

    Yields lists of events; paths ending in a truncated state are
    skipped, since they are not maximal executions."""
    return (path for (path, cut) in ended_paths(explored, limit) if not cut)


def _reachable(succ: list, start: int, follow) -> set:
    """State ids reachable from ``start`` along edges whose events all
    satisfy ``follow``."""
    seen = {start}
    frontier = [start]
    while frontier:
        for (ev, j) in succ[frontier.pop()]:
            if follow(ev) and j not in seen:
                seen.add(j)
                frontier.append(j)
    return seen


def reachable_without(explored, pred) -> set:
    """State ids reachable from the start along edges whose events all
    fail ``pred`` — e.g. everything reachable before a given Return."""
    return _reachable(_successors(explored), 0, lambda ev: not pred(ev))
