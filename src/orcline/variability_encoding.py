"""Compile feature-model relations into Orc combinator expressions.

The correspondence, applied bottom-up over the feature tree:

* sibling mandatory features  →  independent parallel ``A | B``
* an optional child           →  asymmetric parallel ``parent <x< child``
                                 (the binder is never used, so the
                                 parent may ignore the child's value)
* ``requires A B``            →  sequential ``A >x> B`` (B's site is
                                 only reached after A returns)
* ``excludes A B``            →  otherwise ``A ; B`` (B runs only when
                                 A halts silently; A is preferred)
* a binary alternative group  →  a race on a shared flag: two trigger
                                 sites publish true/false, the first
                                 response decides which member runs.

The calculus has no boolean negation, so the flag's complement is
computed with combinators: ``(if(flag) >> let(false) ; let(true))``
publishes the negated flag, because a true flag lets the inner
``let(false)`` publish while a false flag leaves ``if(flag)`` silent
forever and the otherwise branch publishes ``true``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .feature_model import FeatureModel, Requires
from .orc_ast import (
    BUILTIN_SITES, FALSE, TRUE, Asymmetric, Expr, Otherwise, Parallel,
    Program, Sequential, SiteCall, Var,
)
from .orc_parser import NAME, RESERVED


class UnsupportedGroupSize(Exception):
    """Alternative groups other than binary ones have no encoding."""


class MissingTrigger(Exception):
    """An alternative group has no trigger sites in the plan."""


class PlanMismatch(Exception):
    """The plan does not fit the model, or a constraint cannot be
    placed in the composition."""


@dataclass
class EncodingPlan:
    feature_to_site: dict            # feature name -> site name
    trigger_sites: dict = field(default_factory=dict)  # gid -> (a, b)
    notes: list = field(default_factory=list, init=False)


def default_plan(model: FeatureModel) -> EncodingPlan:
    """Features keep their own names as sites; each alternative group
    gets two fresh responsive trigger stubs."""
    triggers = {g.gid: (f"choose_{g.members[0]}", f"choose_{g.members[1]}")
                for g in model.groups if len(g.members) == 2}
    return EncodingPlan({name: name for name in model.features}, triggers)


_PLAN_SHAPE = ('expected {"feature_to_site": {feature: site}, '
               '"trigger_sites": {gid: [site, site]}}')


def _unique_keys(pairs: list) -> dict:
    data = dict(pairs)
    if len(data) != len(pairs):
        raise ValueError(_PLAN_SHAPE)
    return data


def plan_from_json(text: str) -> EncodingPlan:
    """The plan ``{"feature_to_site": {feature: site}, "trigger_sites":
    {gid: [site, site]}}`` written as JSON, either field optional; a
    gid is written in ASCII digits, once.  Raises ValueError for text
    of any other shape, for a key repeated in one object, and for two
    spellings of one gid ("0", "00")."""
    data = json.loads(text, object_pairs_hook=_unique_keys)
    if not isinstance(data, dict):
        raise ValueError(_PLAN_SHAPE)
    sites = data.get("feature_to_site", {})
    triggers = data.get("trigger_sites", {})
    if not (isinstance(sites, dict) and isinstance(triggers, dict)
            and all(isinstance(pair, list) and len(pair) == 2
                    for pair in triggers.values())
            and all(isinstance(site, str) for site in [
                *sites.values(), *sum(triggers.values(), [])])):
        raise ValueError(_PLAN_SHAPE)
    try:
        by_gid = {int(gid): tuple(pair) for gid, pair in triggers.items()
                  if gid.isascii() and gid.isdigit()}
    except ValueError:   # more digits than int() reads
        raise ValueError(_PLAN_SHAPE) from None
    if len(by_gid) != len(triggers):   # a gid not in digits, or spelt twice
        raise ValueError(_PLAN_SHAPE)
    return EncodingPlan(dict(sites), by_gid)


def encode_alternative(m: Expr, n: Expr, a: Expr, b: Expr,
                       flag_var: str = "flag",
                       neg_var: str = "nflag") -> Expr:
    """The mutual-exclusion pattern: run m or n, never both.

    One race ``a >> let(true) | b >> let(false)`` decides the flag, so
    the two guards can never disagree; m's guard is ``if(flag)`` and
    n's guard applies ``if`` to the combinator-computed negation.
    """
    guard_m = Sequential(SiteCall("if", (Var(flag_var),)), None, m)
    negate = Otherwise(
        Sequential(SiteCall("if", (Var(flag_var),)), None,
                   SiteCall("let", (FALSE,))),
        SiteCall("let", (TRUE,)))
    guard_n = Sequential(negate, neg_var,
                         Sequential(SiteCall("if", (Var(neg_var),)), None,
                                    n))
    race = Parallel(
        Sequential(a, None, SiteCall("let", (TRUE,))),
        Sequential(b, None, SiteCall("let", (FALSE,))))
    return Asymmetric(Parallel(guard_m, guard_n), flag_var, race)


def _check_plan(model: FeatureModel, plan: EncodingPlan):
    for g in model.groups:
        if len(g.members) != 2:
            raise UnsupportedGroupSize(
                f"alternative group {g.members} has {len(g.members)} "
                f"members; only binary groups have an encoding")
    missing = [name for name in model.features
               if name not in plan.feature_to_site]
    if missing:
        raise PlanMismatch(f"plan gives no site for features: "
                           f"{sorted(missing)}")
    for g in model.groups:
        pair = plan.trigger_sites.get(g.gid)
        if not pair or len(pair) != 2:
            raise MissingTrigger(
                f"alternative group {g.members} needs two trigger sites")
    used = [plan.feature_to_site[name] for name in model.features]
    used += [site for g in model.groups
             for site in plan.trigger_sites[g.gid]]
    for site in used:
        if not (isinstance(site, str) and NAME.fullmatch(site)):
            raise PlanMismatch(f"site {site!r} is not an Orc name")
        if site in RESERVED or site in BUILTIN_SITES:
            raise PlanMismatch(f"site {site!r} is reserved or built into "
                               f"Orc, so the encoding cannot call it")


class _Encoder:
    def __init__(self, model: FeatureModel, plan: EncodingPlan):
        self.model = model
        self.plan = plan
        self.counter = 0
        self.applied: set = set()

    def fresh(self) -> str:
        name = f"x{self.counter}"
        self.counter += 1
        return name

    def site(self, feature: str) -> Expr:
        return SiteCall(self.plan.feature_to_site[feature])

    def group_expr(self, group):
        """(expr, covered feature names) for an alternative group."""
        (m, n) = group.members
        (ta, tb) = self.plan.trigger_sites[group.gid]
        self.plan.notes.append(
            f"alternative {{{m}, {n}}}: flag race decided by "
            f"{ta}/{tb}, guards composed with if")
        expr_m, covered_m = self.subtree(m)
        expr_n, covered_n = self.subtree(n)
        expr = encode_alternative(
            expr_m, expr_n, SiteCall(ta), SiteCall(tb),
            flag_var=f"flag{group.gid}", neg_var=f"nflag{group.gid}")
        return expr, covered_m | covered_n

    def fuse_constraints(self, units: list) -> list:
        """Apply requires/excludes between units once both endpoints
        have appeared — i.e. at their least common ancestor."""
        for c in self.model.constraints:
            if c in self.applied:
                continue
            ia = ib = None
            for i, (covered, _) in enumerate(units):
                if c.a in covered:
                    ia = i
                if c.b in covered:
                    ib = i
            if ia is None or ib is None:
                continue
            self.applied.add(c)
            if ia == ib:
                raise PlanMismatch(
                    f"constraint {c} relates features that are already "
                    f"composed together; it has no combinator encoding")
            cov_a, expr_a = units[ia]
            cov_b, expr_b = units[ib]
            if isinstance(c, Requires):
                fused = Sequential(expr_a, self.fresh(), expr_b)
                self.plan.notes.append(
                    f"requires {c.a} {c.b}: sequential composition, "
                    f"{c.b} starts after {c.a} returns")
            else:
                fused = Otherwise(expr_a, expr_b)
                self.plan.notes.append(
                    f"excludes {c.a} {c.b}: otherwise composition, "
                    f"{c.b} only if {c.a} stays silent")
            units[min(ia, ib)] = (cov_a | cov_b, fused)
            del units[max(ia, ib)]
        return units

    def subtree(self, name: str):
        """(expr, covered feature names) for the subtree at ``name``."""
        model = self.model
        units = []
        optional, mandatory, groups = model.child_table[name]
        for child in mandatory:
            expr, covered = self.subtree(child)
            units.append((covered, expr))
            self.plan.notes.append(
                f"mandatory {child} under {name}: parallel composition")
        for g in groups:
            expr, covered = self.group_expr(g)
            units.append((covered, expr))
        if name != model.root or not units:
            # The family's own site anchors the goal only when nothing
            # else composes under the root.
            units.insert(0, (set([name]), self.site(name)))
        units = self.fuse_constraints(units)
        exprs = [e for (_, e) in units]
        expr = Parallel(*exprs) if len(exprs) > 1 else exprs[0]
        covered_all = set().union(*(c for (c, _) in units))
        for child in optional:
            child_expr, child_cov = self.subtree(child)
            expr = Asymmetric(expr, self.fresh(), child_expr)
            covered_all |= child_cov
            self.plan.notes.append(
                f"optional {child} under {name}: asymmetric composition, "
                f"published value ignored")
        return expr, covered_all


def encode(model: FeatureModel, plan: EncodingPlan = None) -> Program:
    """Compile the whole feature tree into a goal expression.

    Raises UnsupportedGroupSize, MissingTrigger or PlanMismatch when
    the model has no encoding under the given plan; ``plan.notes``
    records one line per rule applied by this call.
    """
    if plan is None:
        plan = default_plan(model)
    _check_plan(model, plan)
    plan.notes = []
    encoder = _Encoder(model, plan)
    goal, _ = encoder.subtree(model.root)
    unapplied = [c for c in model.constraints if c not in encoder.applied]
    if unapplied:
        raise PlanMismatch(
            f"constraints {unapplied} touch features that never become "
            f"units of the composition (optional or group subtrees)")
    return Program(goal, {}, {})
