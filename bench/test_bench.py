"""Tests of the benchmark itself: its closed-form answers, its checks
and its tracer.  Run from the repository root with

    python3 -m pytest bench -q
"""

from __future__ import annotations

import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import workloads as wl  # noqa: E402
from generators import brute_force_products  # noqa: E402
from orcline import cli, parse_feature_model  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402
from worker import run_pass  # noqa: E402


def _cli(tmp_path, argv, name="out.txt"):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    return code, out.read_text()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("k", [4, 5, 6, 7])
def test_closed_form_product_count_matches_brute_force(k):
    text, valid, invalid = wl.feature_model_text(k, random.Random(k))
    model = parse_feature_model(text)
    products = brute_force_products(model)
    assert len(products) == wl.fm_product_count(k)
    assert frozenset(valid) in products
    assert frozenset(invalid) not in products


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ladder_answers_hold_at_small_n(tmp_path, n):
    path = _write(tmp_path, "ladder.orc",
                  wl.ladder_program(n, random.Random(n)))
    code, out = _cli(tmp_path, ["orc", "explore", path, "--format", "json"])
    assert wl.outcomes_check([list(range(n))])(code, out, "") is None
    code, out = _cli(tmp_path, ["orc", "explore", path, "--format", "lts"])
    check = wl.lts_check(wl.ladder_states(n), wl.ladder_transitions(n))
    assert check(code, out, "") is None


@pytest.mark.parametrize("n", [1, 3, 5])
def test_fanout_answers_hold_at_small_n(tmp_path, n):
    path = _write(tmp_path, "fanout.orc",
                  wl.fanout_program(n, random.Random(n)))
    traces = []
    for seed in (7, 7, 8):
        code, out = _cli(tmp_path, ["orc", "run", path, "--seed", str(seed)])
        assert wl.run_check(n)(code, out, "") is None
        traces.append(out)
    assert traces[0] == traces[1]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_chain_verdicts_hold_at_small_n(tmp_path, n):
    files = {name: _write(tmp_path, name, text) for name, text
             in wl.chain_files(n, random.Random(n)).items()}
    expected = {"full": wl.mts_check(None, n + 1),
                "short": wl.mts_check("must-unmatched"),
                "stray": wl.mts_check("may-unmatched")}
    for name, check in expected.items():
        code, out = _cli(tmp_path, ["mts", "check", files["family"],
                                    files[name]])
        assert check(code, out, "") is None, name


@pytest.mark.parametrize("k", [0, 1, 3])
def test_branching_family_has_two_to_the_k_products(tmp_path, k):
    path = _write(tmp_path, "branches.mts",
                  wl.branching_family(k, 2, random.Random(k)))
    code, out = _cli(tmp_path, ["mts", "products", path])
    assert wl.mts_products_check(2 ** k)(code, out, "") is None


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_same_seed_gives_same_inputs_and_the_stated_mix(tmp_path, name):
    built = []
    for copy in ("a", "b"):
        workdir = tmp_path / copy
        workdir.mkdir()
        workload = wl.build(name, 3, str(workdir))
        files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
        argvs = [[a.replace(str(workdir), "") for a in job.argv]
                 for job in workload.jobs]
        built.append((files, argvs))
    assert built[0] == built[1]
    assert len(workload.jobs) == sum(n for (n, _) in workload.mix.values())
    assert {job.cls for job in workload.jobs} == set(workload.mix)


def _wrong_answers(tmp_path):
    ladder = _write(tmp_path, "ladder.orc", "let(0) | let(1)\n")
    fanout = _write(tmp_path, "fanout.orc",
                    wl.fanout_program(3, random.Random(1)))
    text, valid, _ = wl.feature_model_text(5, random.Random(1))
    model = _write(tmp_path, "model.fm", text)
    return [
        wl.Job("ladder", ["orc", "explore", ladder, "--format", "json"],
               wl.outcomes_check([[0, 1, 2]])),
        wl.Job("ladder-lts", ["orc", "explore", ladder, "--format", "lts"],
               wl.lts_check(wl.ladder_states(3), wl.ladder_transitions(3))),
        wl.Job("fanout", ["orc", "run", fanout, "--seed", "1"],
               wl.run_check(4)),
        wl.Job("fm-count", ["fm", "count", model],
               wl.fm_count_check(wl.fm_product_count(6))),
        wl.Job("fm-validate", ["fm", "validate", model, "--select",
                               ",".join(valid)],
               wl.fm_validate_check(False, "excludes")),
        wl.Job("bad-argv", ["orc", "frobnicate"], wl.run_check(0)),
    ]


def test_wrong_expected_answers_are_counted_as_failures(tmp_path):
    jobs = _wrong_answers(tmp_path)
    records = run_pass(cli.main, jobs, str(tmp_path / "out.txt"), {}, None, 0)
    failures = [failure for (_, _, failure) in records]
    assert all(failure is not None for failure in failures), failures


def test_right_answers_pass_and_a_changed_repeat_fails(tmp_path):
    fanout = _write(tmp_path, "fanout.orc",
                    wl.fanout_program(4, random.Random(2)))
    jobs = [wl.Job("fanout", ["orc", "run", fanout, "--seed", str(s)],
                   wl.run_check(4), same_as="k") for s in (5, 5)]
    records = run_pass(cli.main, jobs, str(tmp_path / "out.txt"), {}, None, 0)
    assert [failure for (_, _, failure) in records] == [None, None]
    jobs[1] = wl.Job("fanout", ["orc", "run", fanout, "--seed", "6"],
                     wl.run_check(4), same_as="k")
    records = run_pass(cli.main, jobs, str(tmp_path / "out.txt"), {}, None, 0)
    assert records[0][2] is None and "different trace" in records[1][2]


def test_tracer_sees_internal_calls_and_accounts_for_job_time(tmp_path):
    import orcline.orc_semantics as sem
    original_step = sem.step
    path = _write(tmp_path, "ladder.orc", "let(0) | let(1) | let(2)\n")
    tracer = Tracer()
    tracer.install()
    try:
        assert sem.step is not original_step
        code, _ = _cli(tmp_path, ["orc", "explore", path, "--format",
                                  "json"])
    finally:
        tracer.uninstall()
    assert code == 0 and sem.step is original_step
    roots = [span for span in tracer.spans if span[4] is None]
    assert [span[1] for span in roots] == ["cli.main"]
    total = roots[0][3] - roots[0][2]
    by_name = self_times(tracer.spans, lambda job: 0)[0]
    assert sum(by_name.values()) == pytest.approx(total, rel=1e-6)
    metrics = layer_metrics(by_name, tracer.counts, 1.0)
    assert metrics["orc_semantics.explore.states"] == wl.ladder_states(3)
    assert metrics["orc_semantics.step.calls"] == wl.ladder_states(3)
    assert metrics["orc_semantics.step.successors"] == \
        wl.ladder_transitions(3)
    assert metrics["orc_semantics.canonical_key.calls"] == \
        wl.ladder_transitions(3) + 1
