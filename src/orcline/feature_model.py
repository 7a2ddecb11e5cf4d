"""Feature models: trees of features plus cross-tree constraints.

A feature model has a root feature, child features that are either
*mandatory* (present whenever the parent is), *optional* (freely
chosen when the parent is present) or members of an *alternative*
group (exactly one member chosen when the parent is present), and two
kinds of cross-tree constraints: ``requires`` (one-directional) and
``excludes`` (symmetric).

A *configuration* is a set of feature names; it is a *product* of the
model when it satisfies all tree and constraint rules.  ``validate``
explains every way a configuration fails; ``enumerate_products`` and
``product_count`` enumerate the valid ones.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import BoundExceeded

#: Default cap on model size for exhaustive product enumeration.
MAX_ENUMERATION_FEATURES = 24


class UnknownFeature(Exception):
    """A referenced feature name is not part of the model."""


@dataclass(frozen=True)
class Feature:
    name: str
    kind: str                # "root" | "mandatory" | "optional" | "member"
    parent: "str | None"
    children: tuple          # all child names, in declaration order
    group: "int | None" = None   # alternative-group id for kind "member"


@dataclass(frozen=True)
class AltGroup:
    gid: int
    parent: str
    members: tuple


@dataclass(frozen=True)
class Requires:
    a: str
    b: str


@dataclass(frozen=True)
class Excludes:
    a: str
    b: str


@dataclass(frozen=True)
class Violation:
    """One broken rule, naming the features involved."""

    rule: str                # "root" | "orphan" | "mandatory" |
                             # "alternative" | "requires" | "excludes"
    features: tuple
    message: str

    def __str__(self):
        return f"{self.rule}: {self.message}"


@dataclass(frozen=True)
class FeatureModel:
    root: str
    features: dict           # name -> Feature
    groups: tuple            # AltGroup, ...
    constraints: tuple       # Requires | Excludes, ...

    def feature(self, name: str) -> Feature:
        try:
            return self.features[name]
        except KeyError:
            raise UnknownFeature(name) from None

    def plain_children(self, name: str) -> list:
        """Mandatory and optional children, skipping group members."""
        return [c for c in self.features[name].children
                if self.features[c].kind in ("mandatory", "optional")]

    def groups_of(self, name: str) -> list:
        return [g for g in self.groups if g.parent == name]


class ModelBuilder:
    """Incremental construction with structural checking at build time."""

    def __init__(self, root: str):
        self._root = root
        self._features = {root: [None, "root", None]}  # parent, kind, gid
        self._order = {root: []}                       # children order
        self._groups = []
        self._constraints = []

    def _add(self, parent: str, name: str, kind: str, gid=None):
        if parent not in self._features:
            raise UnknownFeature(parent)
        if name in self._features:
            raise ValueError(f"duplicate feature {name!r}")
        self._features[name] = [parent, kind, gid]
        self._order[name] = []
        self._order[parent].append(name)

    def mandatory(self, parent: str, name: str) -> str:
        self._add(parent, name, "mandatory")
        return name

    def optional(self, parent: str, name: str) -> str:
        self._add(parent, name, "optional")
        return name

    def alternative(self, parent: str, *members: str) -> int:
        if len(members) < 2:
            raise ValueError("an alternative group needs at least two members")
        gid = len(self._groups)
        for m in members:
            self._add(parent, m, "member", gid)
        self._groups.append(AltGroup(gid, parent, tuple(members)))
        return gid

    def requires(self, a: str, b: str):
        self._constraints.append(Requires(a, b))

    def excludes(self, a: str, b: str):
        self._constraints.append(Excludes(a, b))

    def build(self) -> FeatureModel:
        for c in self._constraints:
            for end in (c.a, c.b):
                if end not in self._features:
                    raise UnknownFeature(end)
        features = {
            name: Feature(name, kind, parent, tuple(self._order[name]), gid)
            for name, (parent, kind, gid) in self._features.items()
        }
        return FeatureModel(self._root, features, tuple(self._groups),
                            tuple(self._constraints))


def _constraints_hold(fm: FeatureModel, selected: frozenset) -> bool:
    for c in fm.constraints:
        if isinstance(c, Requires):
            if c.a in selected and c.b not in selected:
                return False
        else:
            if c.a in selected and c.b in selected:
                return False
    return True


def _violations(fm: FeatureModel, selection):
    """Yield the rule violations of ``selection`` one at a time, so a
    caller that only needs the first stops the walk there."""
    for name in selection:   # in input order: the first unknown name
        if name not in fm.features:
            raise UnknownFeature(name)
    selected = frozenset(selection)

    if fm.root not in selected:
        yield Violation("root", (fm.root,),
                        f"root feature {fm.root!r} must be selected")
    for name in sorted(selected):
        f = fm.features[name]
        if f.parent is not None and f.parent not in selected:
            yield Violation(
                "orphan", (name, f.parent),
                f"{name!r} is selected but its parent {f.parent!r} is not")
    for name in sorted(selected):
        for child in fm.features[name].children:
            if fm.features[child].kind == "mandatory" and child not in selected:
                yield Violation(
                    "mandatory", (name, child),
                    f"{child!r} is mandatory under selected {name!r}")
    for g in fm.groups:
        if g.parent not in selected:
            continue
        chosen = [m for m in g.members if m in selected]
        if len(chosen) != 1:
            what = "none" if not chosen else ", ".join(repr(m) for m in chosen)
            yield Violation(
                "alternative", (g.parent,) + g.members,
                f"exactly one of {g.members} required under "
                f"{g.parent!r}, got {what}")
    for c in fm.constraints:
        if isinstance(c, Requires):
            if c.a in selected and c.b not in selected:
                yield Violation("requires", (c.a, c.b),
                                f"{c.a!r} requires {c.b!r}")
        else:
            if c.a in selected and c.b in selected:
                yield Violation("excludes", (c.a, c.b),
                                f"{c.a!r} excludes {c.b!r}")


def validate(fm: FeatureModel, selection) -> list:
    """All rule violations of ``selection``, empty when it is a product.

    Raises UnknownFeature for the first name of the selection, in its
    iteration order, that is outside the model (that is an input error,
    not a configuration defect).
    """
    return list(_violations(fm, selection))


def is_valid(fm: FeatureModel, selection) -> bool:
    return next(_violations(fm, selection), None) is None


def _slots(fm: FeatureModel, name: str) -> list:
    """One list of choices per slot under a selected ``name``: each
    mandatory or optional child (an optional one may also be left out)
    and each alternative group.  Tree rules only; cross-tree
    constraints are filtered at the top."""
    slots = []
    for child in fm.plain_children(name):
        sub = list(_configurations(fm, child))
        if fm.features[child].kind == "optional":
            sub = [frozenset()] + sub
        slots.append(sub)
    for g in fm.groups_of(name):
        slots.append([option for m in g.members
                      for option in _configurations(fm, m)])
    return slots


def _configurations(fm: FeatureModel, name: str):
    """Lazily, every way of configuring the subtree rooted at ``name``,
    given that ``name`` itself is selected."""
    return itertools.starmap(frozenset((name,)).union,
                             itertools.product(*_slots(fm, name)))


def _iter_products(fm: FeatureModel):
    # Streams, so the constraint filter never materialises the full
    # cartesian product.
    return filter(functools.partial(_constraints_hold, fm),
                  _configurations(fm, fm.root))


def _check_size(fm: FeatureModel, max_features: int):
    if len(fm.features) > max_features:
        raise BoundExceeded(
            f"model has {len(fm.features)} features, enumeration bound "
            f"is {max_features}")


def enumerate_products(fm: FeatureModel,
                       max_features: int = MAX_ENUMERATION_FEATURES) -> set:
    """The set of all products, each a frozenset of feature names."""
    _check_size(fm, max_features)
    return set(_iter_products(fm))


def product_count(fm: FeatureModel,
                  max_features: int = MAX_ENUMERATION_FEATURES) -> int:
    """Number of products.  Counts multiplicatively when there are no
    cross-tree constraints, otherwise streams the enumeration, which
    ``max_features`` bounds."""
    if not fm.constraints:
        def count(name):
            n = 1
            for child in fm.plain_children(name):
                c = count(child)
                n *= c + 1 if fm.features[child].kind == "optional" else c
            for g in fm.groups_of(name):
                n *= sum(count(m) for m in g.members)
            return n
        return count(fm.root)
    _check_size(fm, max_features)
    return sum(1 for _ in _iter_products(fm))
