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
``sorted_products`` list the products and ``product_count`` counts
them, each by conditioning on the features that constraints touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import prod
from operator import add, mul

from .errors import BoundExceeded

#: Cap on model size for exhaustive product enumeration.
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

    @cached_property
    def child_table(self) -> dict:
        """name -> (optional children, mandatory children, groups), each
        in declaration order."""
        table = {name: ([], [], []) for name in self.features}
        for name, f in self.features.items():
            if f.kind in ("optional", "mandatory"):
                table[f.parent][f.kind == "mandatory"].append(name)
        for g in self.groups:
            table[g.parent][2].append(g)
        return table


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

    def group(self, parent: str) -> int:
        """Open an empty alternative group under ``parent`` and return
        its id.  ``member`` adds the members one at a time, so each can
        get its children before the next is added; the caller checks
        that a group gets at least two, as ``alternative`` does."""
        if parent not in self._features:
            raise UnknownFeature(parent)
        self._groups.append(AltGroup(len(self._groups), parent, ()))
        return len(self._groups) - 1

    def member(self, gid: int, name: str) -> str:
        """Add ``name`` as the next member of group ``gid``; raises
        ValueError if the name is taken."""
        g = self._groups[gid]
        self._add(g.parent, name, "member", gid)
        self._groups[gid] = AltGroup(gid, g.parent, g.members + (name,))
        return name

    def alternative(self, parent: str, *members: str) -> int:
        if len(members) < 2:
            raise ValueError("an alternative group needs at least two members")
        gid = self.group(parent)
        for m in members:
            self.member(gid, m)
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
        for child in fm.child_table[name][1]:
            if child not in selected:
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


def _walk(fm: FeatureModel, must, off, leaf, absent, times, total):
    """The root's slots with ``must`` selected and ``off`` left out,
    folded into counts (1, 1, ``*``, ``sum``) or key lists (``[weight]``,
    ``[0]``, cross-sum, concatenation).  A slot is an optional child (or
    ``absent``, unless in ``must``), a group (its ``must`` member, else
    those not off) or a mandatory child's leaf and slots; a subtree is
    its leaf times its slots."""
    table = fm.child_table

    def slots(name):
        optional, mandatory, groups = table[name]
        out = []
        for child in mandatory:
            if child in off:
                return [total(())]
            out.append(leaf(child))
            out += slots(child)
        for child in optional:
            if child not in off:
                sub = configurations(child)
                out.append(sub if child in must else total((absent, sub)))
        for g in groups:
            chosen = [m for m in g.members if m in must]
            if not chosen:
                chosen = [m for m in g.members if m not in off]
            elif chosen[1:]:
                chosen = []
            out.append(total(map(configurations, chosen)))
        return out

    def configurations(name):
        return reduce(times, slots(name), leaf(name))

    return slots(fm.root)


#: The counting fold of a ``_walk``.
_COUNTS = (lambda name: 1, 1, mul, sum)


def _filter(constraints, bit):
    """A function keeping the keys of a list that satisfy every
    constraint, ``bit`` giving the bit each feature's key has set when
    it is *not* selected."""
    requires = [(bit[c.a], bit[c.b]) for c in constraints
                if isinstance(c, Requires)]
    excludes = [bit[c.a] | bit[c.b] for c in constraints
                if isinstance(c, Excludes)]

    def keep(keys):
        for a, b in requires:
            keys = [k for k in keys if k & a or not k & b]
        for ab in excludes:
            keys = [k for k in keys if k & ab]
        return keys
    return keep


def _condition(fm: FeatureModel) -> tuple:
    """``(assignments, constraints)``: the ``(must, off)`` name sets
    whose walks hold each product once, and the constraints left to
    filter them by.

    Each assignment of the k features that constraints touch which
    satisfies them all selects its features and their ancestors and
    leaves the others out.  When 2^k walks of every feature outnumber
    the unconstrained products, the one empty assignment is walked and
    filtered instead, at most ``MAX_ENUMERATION_FEATURES`` features;
    conditioning makes at most 2^``MAX_ENUMERATION_FEATURES`` visits."""
    touched = sorted({end for c in fm.constraints for end in (c.a, c.b)})
    n, k = len(fm.features), len(touched)
    if n << k > prod(_walk(fm, (), (), *_COUNTS)) \
            and n <= MAX_ENUMERATION_FEATURES:
        return [((), ())], fm.constraints
    if n << k > 1 << MAX_ENUMERATION_FEATURES:
        raise BoundExceeded(
            f"model has {n} features, {k} of them in constraints, counting "
            f"bound is {MAX_ENUMERATION_FEATURES} features or "
            f"2^{MAX_ENUMERATION_FEATURES} node visits ({n} x 2^{k})")
    assignments = []
    keep = _filter(fm.constraints, {t: 1 << i for i, t in enumerate(touched)})
    for v in keep(range(1 << k)):
        must, off = {fm.root}, set()
        for i, name in enumerate(touched):
            if v >> i & 1:
                off.add(name)
            else:
                while name not in must:
                    must.add(name)
                    name = fm.features[name].parent
        if must.isdisjoint(off):
            assignments.append((must, off))
    return assignments, ()


def _product_keys(fm: FeatureModel, plan=None):
    """A stream of the products' keys as int lists, one row at a time.

    The feature of sorted rank ``r`` weighs ``2^n - 2^(n-1-r)`` and the
    root adds ``2^n - 1``, so a product of ``s`` features has the key
    ``s * 2^n`` plus its complemented mask, in which the bit
    ``2^(n-1-r)`` is set when that feature is left out.  Per assignment
    of ``plan`` (``_condition``), the root's slots go to two lists of
    balanced size (each slot, largest first, joins the smaller side); a
    row is one key of the shorter list plus every key of the other,
    filtered by the constraints left."""
    names = sorted(fm.features)
    n = len(names)
    bit = {name: 1 << (n - 1 - r) for r, name in enumerate(names)}
    assignments, constraints = plan or _condition(fm)
    keep = _filter(constraints, bit)

    def cross(acc, sub):
        return [x + y for x in acc for y in sub]
    keys = (lambda name: [(1 << n) - bit[name]], [0], cross,
            lambda subs: [k for sub in subs for k in sub])

    def rows():
        for must, off in assignments:
            left, right = [(2 << n) - 1 - bit[fm.root]], [0]
            for sub in sorted(_walk(fm, must, off, *keys), key=len,
                              reverse=True):
                if len(left) <= len(right):
                    left = cross(left, sub)
                else:
                    right = cross(right, sub)
            short, long = sorted((left, right), key=len)
            long.sort()    # few long ascending rows, for the sort to merge
            for x in short:
                yield keep([x + y for y in long])

    return rows()


def _decoded(fm: FeatureModel, pieces, join, sep="") -> tuple:
    """``(heads, tails)``: per product in ``sorted_products`` order, the
    ``join`` of the ``pieces`` (one per sorted name) of its features in
    the first half of the names and in the rest, a table lookup each.
    Every product holds the root, so the nonempty entries of the half
    without it carry ``sep`` on their inner end: a head plus its tail
    is the whole join."""
    names, n = sorted(fm.features), len(fm.features)
    if n > MAX_ENUMERATION_FEATURES:
        raise BoundExceeded(f"model has {n} features, enumeration bound "
                            f"is {MAX_ENUMERATION_FEATURES}")
    keys = sorted(k for row in _product_keys(fm) for k in row)
    split = n // 2

    def table(part):   # index v selects the pieces whose bit v lacks
        selected = [[]]
        for piece in reversed(part):
            selected = [[piece, *rest] for rest in selected] + selected
        return list(map(join, selected))
    high, low = table(pieces[:split]), table(pieces[split:])
    if sep and names.index(fm.root) < split:
        low = [sep + text if text else text for text in low]
    elif sep:
        high = [text + sep if text else text for text in high]
    width, hmask, lmask = n - split, len(high) - 1, len(low) - 1
    return ([high[k >> width & hmask] for k in keys],
            [low[k & lmask] for k in keys])


def enumerate_products(fm: FeatureModel) -> set:
    """The set of all products, each a frozenset of feature names."""
    return set(map(frozenset, sorted_products(fm)))


def sorted_products(fm: FeatureModel) -> list:
    """Every product as its sorted list of feature names, ordered by
    size, then by the name lists: ascending key order (``_product_keys``).
    The size leads the key, and among products of one size, the first
    name where two sorted lists differ is the highest bit of their
    complemented masks' XOR, which the earlier list's key lacks."""
    return list(map(add, *_decoded(fm, sorted(fm.features), list)))


def joined_products(fm: FeatureModel, sep: str, lead: str,
                    form=str) -> list:
    """Pieces whose concatenation is every product in ``sorted_products``
    order, each written ``lead + sep.join(map(form, names))``: three a
    product, ``lead`` first, so ``len // 3`` counts them."""
    heads, tails = _decoded(fm, list(map(form, sorted(fm.features))),
                            sep.join, sep)
    out = [lead] * (3 * len(heads))
    out[1::3], out[2::3] = heads, tails
    return out


def product_count(fm: FeatureModel) -> int:
    """Number of products: the sum of ``_condition``'s walks counted,
    or the streamed enumeration's length when constraints are left.
    Raises BoundExceeded when neither fits its bound."""
    assignments, constraints = plan = _condition(fm)
    if constraints:
        return sum(map(len, _product_keys(fm, plan)))
    return sum(prod(_walk(fm, must, off, *_COUNTS))
               for must, off in assignments)
