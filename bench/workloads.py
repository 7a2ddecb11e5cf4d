"""Seeded inputs, job lists and hand-derived answers for the benchmark.

Each workload is a fixed list of CLI jobs.  ``build(name, seed, workdir)``
writes the workload's input files into ``workdir`` and returns the list.
A job is one ``orcline`` command line exactly as a user would type it
(the runner appends ``--out FILE``), together with a check of its exit
code and output against an answer derived by hand or in closed form.
Nothing here imports orcline: the expected answers never come from the
program under test.

The seed changes names, textual order and scheduler seeds, never the
size of an input, so every seed costs the same amount of work.
"""

from __future__ import annotations

import json
import os
import random
import re
from collections import Counter
from dataclasses import dataclass, field

WORKLOADS = ("orc", "product-line")

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "src", "orcline", "fixtures")


@dataclass
class Job:
    """One CLI call and its expected verdict.

    ``check(code, out, err)`` returns None when the verdict matches and
    a one-line reason otherwise.  Jobs sharing a ``same_as`` key must
    write byte-identical output (a repeated ``orc run`` seed).
    """

    cls: str
    argv: list
    check: object
    same_as: "str | None" = None
    out: "str | None" = None      # fixed output path, else a scratch file


@dataclass
class Workload:
    name: str
    jobs: list
    # job class -> (count in the list, why the class is there)
    mix: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Closed forms and input texts

def ladder_states(n: int) -> int:
    """``let(0) | ... | let(n-1)``: each branch passes through four local
    states (call, pending, emit, stopped), independently."""
    return 4 ** n


def ladder_transitions(n: int) -> int:
    """Each of the n branches can move in three of its four local states
    while the other n-1 branches sit in any of theirs."""
    return 3 * n * 4 ** (n - 1)


def fm_product_count(k: int) -> int:
    """k optional features with one ``requires`` pair (3 of 4 choices)
    and one disjoint ``excludes`` pair (3 of 4), times a binary
    alternative (2)."""
    return 2 ** (k - 4) * 3 * 3 * 2


def ladder_program(n: int, rng: random.Random) -> str:
    values = list(range(n))
    rng.shuffle(values)
    return " | ".join(f"let({v})" for v in values) + "\n"


def fanout_program(n: int, rng: random.Random) -> str:
    """n branches ``S_i() >x> let(x)``; site S_i answers i after
    (i mod 3) ticks.  Every schedule publishes each i exactly once."""
    order = list(range(n))
    rng.shuffle(order)
    sites = "".join(f"site S{i} delay {i % 3} responds {i}\n" for i in order)
    rng.shuffle(order)
    return sites + " | ".join(f"S{i}() >x> let(x)" for i in order) + "\n"


def feature_model_text(k: int, rng: random.Random) -> tuple:
    """A family with k optional features under the root, one binary
    alternative, ``requires`` between two optional features and
    ``excludes`` between two others.

    Returns (text, valid selection, selection violating the excludes).
    """
    names = [f"F{i:02d}" for i in range(k)]
    rng.shuffle(names)
    req_a, req_b, exc_a, exc_b = names[:4]
    root, alt_a, alt_b = "Root", "AltLeft", "AltRight"
    items = [f"  optional {name}" for name in names]
    items.append(f"  alternative {{ {alt_a}, {alt_b} }}")
    rng.shuffle(items)
    lines = [f"family {root} {{"] + items + [
        f"  requires {req_a} {req_b}",
        f"  excludes {exc_a} {exc_b}",
        "}",
    ]
    valid = [root, alt_a, req_a, req_b]
    invalid = [root, alt_b, exc_a, exc_b]
    return "\n".join(lines) + "\n", valid, invalid


def chain_files(n: int, rng: random.Random) -> dict:
    """A chain family of n required steps and three candidate products.

    The family requires ``a`` n times (q0 -> ... -> qn) and allows two
    optional extras at the end: ``a`` back to q0, and ``b`` looping on
    qn.  Its products are the chains of exactly n ``a`` steps:

    * ``full``: the chain itself is a product, witnessed by the n+1
      diagonal pairs (pi, qi);
    * ``short``: without the last edge the product stops one step
      early, so some required ``a`` has no counterpart
      (``must-unmatched``), and no product move is ever disallowed;
    * ``stray``: the chain plus a ``b`` loop at its start does a move
      the family forbids there (``may-unmatched``), while every required
      move stays matched until that pair is removed.
    """
    a, b = rng.sample(["go", "up", "on", "to"], 2)
    fam = [f"must q{i} {a} q{i + 1}" for i in range(n)]
    fam += [f"may q{n} {a} q0", f"may q{n} {b} q{n}"]
    rng.shuffle(fam)
    states = " ".join(f"q{i}" for i in range(n + 1))
    family = f"mts Chain\nstates {states}\ninit q0\n" + "\n".join(fam) + "\n"

    def product(name, trans):
        trans = list(trans)
        rng.shuffle(trans)
        pstates = " ".join(f"p{i}" for i in range(n + 1))
        return (f"lts {name}\nstates {pstates}\ninit p0\n"
                + "\n".join(trans) + "\n")

    chain = [f"trans p{i} {a} p{i + 1}" for i in range(n)]
    return {
        "family": family,
        "full": product("Full", chain),
        "short": product("Short", chain[:-1]),
        "stray": product("Stray", chain + [f"trans p0 {b} p0"]),
    }


def branching_family(k: int, island: int, rng: random.Random) -> str:
    """One required step plus k independent optional branches from the
    initial state (2^k products) and ``island`` optional transitions
    between states no transition reaches, which never change a
    product but double the candidates each."""
    lines = ["must r0 start r1"]
    lines += [f"may r0 x{i} b{i}" for i in range(k)]
    lines += [f"may u{i} y u{(i + 1) % island}" for i in range(island)]
    rng.shuffle(lines)
    states = ["r0", "r1"] + [f"b{i}" for i in range(k)] + \
        [f"u{i}" for i in range(island)]
    return (f"mts Branches\nstates {' '.join(states)}\ninit r0\n"
            + "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Checks

def _expect_code(code: int, want: int):
    return None if code == want else f"exit code {code}, expected {want}"


def outcomes_check(expected: list):
    """``orc explore --format json``: the outcome multisets, as a set,
    equal ``expected``; nothing truncated.  State counts are not
    checked, since a reduction may change them."""
    want = sorted(sorted(json.dumps(v) for v in seq) for seq in expected)

    def check(code, out, err):
        bad = _expect_code(code, 0)
        if bad:
            return bad
        data = json.loads(out)
        got = sorted(sorted(json.dumps(v) for v in seq)
                     for seq in data["outcomes"])
        if got != want:
            return f"outcomes {data['outcomes']}, expected {expected}"
        if data["truncated"] or data["truncated_outcomes"]:
            return "exploration reported truncation"
        return None
    return check


def lts_check(states: int, transitions: int):
    """``orc explore --format lts``: the full interleaving graph."""
    def check(code, out, err):
        bad = _expect_code(code, 0)
        if bad:
            return bad
        lines = out.splitlines()
        n_states = next((len(line.split()) - 1 for line in lines
                         if line.startswith("states ")), -1)
        n_trans = sum(1 for line in lines if line.startswith("trans "))
        if (n_states, n_trans) != (states, transitions):
            return (f"{n_states} states / {n_trans} transitions, expected "
                    f"{states} / {transitions}")
        return None
    return check


def run_check(n: int):
    """``orc run``: exit 0 and the publications are exactly {0..n-1}."""
    want = Counter(range(n))

    def check(code, out, err):
        bad = _expect_code(code, 0)
        if bad:
            return bad
        published = Counter()
        for line in out.splitlines():
            event = json.loads(line)
            if event["kind"] == "publish":
                published[event["value"]["v"]] += 1
        if published != want:
            return f"published {sorted(published.elements())}"
        return None
    return check


def encode_check(features: set, optional: int):
    """``encode``: every non-root feature is called exactly once and
    each optional feature becomes one asymmetric (``<x<``) arm."""
    def check(code, out, err):
        bad = _expect_code(code, 0)
        if bad:
            return bad
        called = Counter(re.findall(r"\b([A-Za-z_]\w*)\(\)", out))
        if called != Counter(features):
            return f"called sites {dict(called)}, expected {sorted(features)}"
        arms = len(re.findall(r"<\w+<", out))
        if arms != optional:
            return f"{arms} asymmetric arms, expected {optional}"
        return None
    return check


def mts_check(clause: "str | None", witness_pairs: int = 0):
    """``mts check``: PRODUCT with the stated witness size, or
    NOT-A-PRODUCT naming ``clause`` (the located pair is not compared)."""
    def check(code, out, err):
        lines = out.splitlines()
        if clause is None:
            bad = _expect_code(code, 0)
            if bad:
                return bad
            want = ["PRODUCT", f"witness ({witness_pairs} pairs):"]
            if lines[:2] != want or len(lines) != 2 + witness_pairs:
                return f"got {lines[:2]}, expected {want}"
            return None
        bad = _expect_code(code, 3)
        if bad:
            return bad
        if lines[:1] != ["NOT-A-PRODUCT"] or len(lines) < 2 or \
                not lines[1].startswith(f"  {clause}: "):
            return f"got {lines[:2]}, expected clause {clause}"
        return None
    return check


def mts_products_check(count: int):
    def check(code, out, err):
        bad = _expect_code(code, 0)
        if bad:
            return bad
        blocks = sum(1 for line in out.splitlines() if line.startswith("lts "))
        if blocks != count:
            return f"{blocks} products, expected {count}"
        return None
    return check


def fm_products_check(count: int):
    def check(code, out, err):
        bad = _expect_code(code, 0)
        if bad:
            return bad
        lines = out.splitlines()
        listed = len(set(lines[1:]))
        if lines[:1] != [f"products {count}"] or listed != count:
            return f"header {lines[:1]}, {listed} distinct products, " \
                   f"expected {count}"
        return None
    return check


def fm_count_check(count: int):
    def check(code, out, err):
        bad = _expect_code(code, 0)
        if bad:
            return bad
        return None if out == f"{count}\n" else f"count {out!r}, " \
                                                   f"expected {count}"
    return check


def fm_validate_check(valid: bool, rule: str = ""):
    def check(code, out, err):
        bad = _expect_code(code, 0 if valid else 3)
        if bad:
            return bad
        lines = out.splitlines()
        if valid:
            return None if lines == ["VALID"] else f"got {lines}"
        if lines[:1] != ["INVALID"] or not any(
                line.startswith(f"  {rule}: ") for line in lines[1:]):
            return f"got {lines}, expected an {rule} violation"
        return None
    return check


# ---------------------------------------------------------------------------
# Workloads

def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as handle:
        handle.write(text)
    return path


def _fixture(workdir: str, name: str) -> str:
    with open(os.path.join(FIXTURES, name)) as handle:
        return _write(workdir, name, handle.read())


def _assemble(name: str, classes: list, rng: random.Random) -> Workload:
    """Interleave the job classes into one list in a seeded order.

    ``classes`` holds (class name, why, [jobs]); the order of the list
    changes with the seed, its contents do not."""
    jobs = [job for (_, _, members) in classes for job in members]
    rng.shuffle(jobs)
    mix = {cls: (len(members), why) for (cls, why, members) in classes}
    return Workload(name, jobs, mix)


def fanout_runs(n: int, count: int, rng: random.Random, workdir: str) -> list:
    """``count`` seeded ``orc run`` jobs on one n-branch fan-out.  The
    first scheduler seed appears twice; every job must also write the
    same trace in every pass."""
    path = _write(workdir, f"fanout{n}.orc", fanout_program(n, rng))
    seeds = rng.sample(range(1, 10 ** 6), count - 1)
    seeds.append(seeds[0])
    return [Job(f"run-fanout{n}", ["orc", "run", path, "--seed", str(s)],
                run_check(n), same_as=f"{n}:{s}")
            for s in seeds]


def orc(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)

    def explore(path, fmt="json"):
        return ["orc", "explore", path, "--format", fmt]

    ladders = {n: _write(workdir, f"ladder{n}.orc", ladder_program(n, rng))
               for n in (4, 5, 6)}
    race = _write(workdir, "race.orc",
                  "Rtimer(2) >x> let(1) | Rtimer(1) >y> let(2)\n")
    mutex = _fixture(workdir, "mutex.orc")
    dr = _fixture(workdir, "dr.orc")
    dr_alt = _fixture(workdir, "dr_alt.orc")
    no_renew = _fixture(workdir, "no_renewables.fm")
    encoded = os.path.join(workdir, "no_renewables.orc")
    # One publication per outcome: the (pricing, trading) pair.
    pairs = [[[p, t]] for p in ("real_time", "day_ahead")
             for t in ("sell", "buy")]

    classes = [
        ("race", "Tick: timers order the two publications; the cheapest "
                 "exploration, below the median class",
         [Job("race", explore(race), outcomes_check([[1, 2]]))] * 20),
        ("encode-no_renewables",
         "first half of the paper's pipeline; it writes the program the "
         "explore-no_renewables jobs read",
         [Job("encode-no_renewables", ["encode", no_renew],
              encode_check({"DemandResponse", "FlexibleTariffs",
                            "TwoWayPricing", "ExceptionPricing",
                            "GridMonitoring"}, 0), out=encoded)] * 2),
        ("mutex", "the median class: a flag race whose outcomes are "
                  "exactly one of M, N",
         [Job("mutex", explore(mutex), outcomes_check([["M"], ["N"]]))]
         * 20),
        ("dr", "two races under <x<: the four pricing x trading pairs",
         [Job("dr", explore(dr), outcomes_check(pairs))] * 5),
        ("ladder4-lts", "the full interleaving graph, checked against "
                        "4^n states and 3n*4^(n-1) transitions",
         [Job("ladder4-lts", explore(ladders[4], "lts"),
              lts_check(ladder_states(4), ladder_transitions(4)))] * 3),
        ("explore-no_renewables",
         "second half of the pipeline: five mandatory features, five "
         "signals",
         [Job("explore-no_renewables", explore(encoded),
              outcomes_check([["signal"] * 5]))] * 2),
        ("ladder5", "fold-heavy: one outcome [0..4] over 4^5 states",
         [Job("ladder5", explore(ladders[5]),
              outcomes_check([list(range(5))]))] * 3),
        ("run-fanout16", "seeded runs: step builds every successor and "
                         "the run keeps one, with no dedup or fold",
         fanout_runs(16, 2, rng, workdir)),
        ("run-fanout24", "seeded runs on a wider fan-out",
         fanout_runs(24, 4, rng, workdir)),
        ("run-fanout32", "seeded runs: each step rebuilds every successor, "
                         "so cost grows faster than the width",
         fanout_runs(32, 2, rng, workdir)),
        ("dr_alt", "the tail class: step- and canonical_key-heavy "
                   "committed choice",
         [Job("dr_alt", explore(dr_alt),
              outcomes_check([["Agreement"], ["Load_shift"]]))] * 4),
        ("ladder6", "the heaviest job, beyond the tail percentile: "
                    "the path fold over 4^6 states dominates it",
         [Job("ladder6", explore(ladders[6]),
              outcomes_check([list(range(6))]))]),
    ]
    workload = _assemble("orc", classes, rng)
    # The encoded program must exist before any job reads it: the
    # encode job that produces it runs first in every pass.
    first = next(i for i, job in enumerate(workload.jobs)
                 if job.cls == "encode-no_renewables")
    workload.jobs.insert(0, workload.jobs.pop(first))
    return workload


def product_line(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    chain_n = 50
    chain = {}
    for name, text in chain_files(chain_n, rng).items():
        suffix = "mts" if name == "family" else "lts"
        chain[name] = _write(workdir, f"chain_{name}.{suffix}", text)
    branch_k = 10
    branches = _write(workdir, "branches.mts",
                      branching_family(branch_k, 2, rng))
    products_k, count_k = 14, 15
    fm_text, valid, invalid = feature_model_text(products_k, rng)
    fm_products = _write(workdir, f"fm{products_k}.fm", fm_text)
    fm_count = _write(workdir, f"fm{count_k}.fm",
                      feature_model_text(count_k, rng)[0])
    smartgrid = _fixture(workdir, "smartgrid.fm")

    def check_cmd(product):
        return ["mts", "check", chain["family"], chain[product]]

    classes = [
        ("fm-validate", "below the median: a configuration check, VALID "
                        "or INVALID by the excludes rule",
         [Job("fm-validate", ["fm", "validate", fm_products, "--select",
                              ",".join(valid)], fm_validate_check(True)),
          Job("fm-validate", ["fm", "validate", fm_products, "--select",
                              ",".join(invalid)],
              fm_validate_check(False, "excludes"))]),
        ("encode-smartgrid", "below the median: the paper's compiler on "
                             "its own example",
         [Job("encode-smartgrid", ["encode", smartgrid],
              encode_check({"IntegrationOfRenewables", "Storage",
                            "VehicleToGrid", "ElectricVehicles",
                            "DemandResponse", "GridMonitoring",
                            "SupplierChoice", "ReservationForecast"}, 2))]),
        ("mts-products", "below the median: 2^10 products from 2^12 "
                         "candidates, two optional transitions unreachable",
         [Job("mts-products", ["mts", "products", branches],
              mts_products_check(2 ** branch_k))]),
        ("fm-count", f"below the median: streams 2^{count_k + 1} candidates "
                     f"through the constraint filter",
         [Job("fm-count", ["fm", "count", fm_count],
              fm_count_check(fm_product_count(count_k)))]),
        ("fm-products", f"the median class: enumeration, then sorting and "
                        f"rendering {fm_product_count(products_k)} products",
         [Job("fm-products", ["fm", "products", fm_products],
              fm_products_check(fm_product_count(products_k)))] * 6),
        ("mts-check", f"the tail class: the deletion fixpoint over all "
                      f"{chain_n + 1}^2 state pairs, one job per verdict",
         [Job("mts-check", check_cmd("full"),
              mts_check(None, chain_n + 1)),
          Job("mts-check", check_cmd("short"), mts_check("must-unmatched")),
          Job("mts-check", check_cmd("stray"), mts_check("may-unmatched"))]),
    ]
    return _assemble("product-line", classes, rng)


BUILDERS = {"orc": orc, "product-line": product_line}


def build(name: str, seed: int, workdir: str) -> Workload:
    return BUILDERS[name](seed, workdir)
