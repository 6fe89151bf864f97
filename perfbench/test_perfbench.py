"""Tests of the benchmark itself: its checks can fail, its counts repeat.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import arch_resonance  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def first_passing(items, predicate=lambda item: True):
    """Run items until one passes its check; return it with its output."""
    for item in items:
        if predicate(item):
            output = item.call()
            assert run.check(item, output) is None, item.label
            return item, output
    raise AssertionError("no item matched")


def verdict(item, output) -> tuple[int, int, list[str]]:
    verdicts = run.Verdicts([item])
    verdicts.add([output])
    verdicts.finish()
    return verdicts.attempted, verdicts.failed, [reason for _, reason in verdicts.errors]


def test_corrupted_golden_byte_is_a_failure():
    items = workloads.build("figures", 1, GOLDEN)
    item, (code, out, err) = first_passing(items)
    i = out.index("\n") + 5  # a byte inside the first data row
    corrupted = out[:i] + ("0" if out[i] != "0" else "1") + out[i + 1 :]
    assert verdict(item, (code, out, err)) == (1, 0, [])
    attempted, failed, errors = verdict(item, (code, corrupted, err))
    assert (attempted, failed) == (1, 1)
    assert "differ from tests/golden" in errors[0]


def test_corrupted_closed_form_K_is_a_failure():
    items = workloads.build("queries", 1, GOLDEN)
    item, (code, out, err) = first_passing(
        items, lambda it: it.label.startswith("freq") and "--crack-psi" not in it.label
        and it.label.endswith("json")
    )
    doc = json.loads(out)
    k = doc["spectrum"][0]["K"]
    doc["spectrum"][0]["K"] = k + 1e-6 * max(1.0, k)  # 100x the stated accuracy
    attempted, failed, errors = verdict(item, (code, json.dumps(doc), err))
    assert failed == 1 and "closed form" in errors[0]


def cracked_json_freq(seed: int):
    """A passing cracked ``freq --format json`` request of the queries mix."""
    return first_passing(
        workloads.build("queries", seed, GOLDEN),
        lambda it: it.label.startswith("freq") and "--crack-psi" in it.label
        and it.label.endswith("json"),
    )


def test_corrupted_cracked_K_is_a_failure():
    item, (code, out, err) = cracked_json_freq(1)
    doc = json.loads(out)
    doc["spectrum"][-1]["K"] *= 1 + 1e-6
    attempted, failed, errors = verdict(item, (code, json.dumps(doc), err))
    assert failed == 1 and "shooting determinant" in errors[0]


def test_skipped_cracked_root_is_a_failure():
    """Modes 1, 3, 4, ... reported as 1, 2, 3, ...: every K is a root and the
    spectrum ascends, but a root lies between the first two."""
    item, (code, out, err) = first_passing(
        workloads.build("queries", 1, GOLDEN),
        lambda it: it.label.startswith("freq") and "--crack-psi" in it.label
        and it.label.endswith("json") and " --modes 1 " not in it.label,
    )
    argv = item.label.split()
    at = argv.index("--modes") + 1
    argv[at] = str(int(argv[at]) + 1)
    rows = json.loads(workloads.run_cli(tuple(argv))[1])["spectrum"]
    skipped = [rows[0], *rows[2:]]
    for mode, row in enumerate(skipped, 1):
        row["mode"] = mode
    doc = json.loads(out)
    doc["spectrum"] = skipped
    attempted, failed, errors = verdict(item, (code, json.dumps(doc), err))
    assert failed == 1 and "roots of the shooting determinant below" in errors[0]


def test_cracked_mode_index_is_checked():
    beta, eta, alpha, theta = 1.7, 0.5, 0.6, 0.4
    problem = arch_resonance.ArchProblem(beta, eta, arch_resonance.model.CrackJoint(alpha, theta))
    ks = arch_resonance.solver.find_frequencies(
        problem, arch_resonance.solver.SearchConfig(max_modes=3)
    ).K_values
    assert workloads.shooting_error(beta, eta, alpha, theta, first=3)([ks[2]]) is None
    error = workloads.shooting_error(beta, eta, alpha, theta, first=2)([ks[2]])
    assert "2 roots of the shooting determinant below" in error


def test_short_spectrum_and_crash_are_failures():
    item, (code, out, err) = cracked_json_freq(2)
    doc = json.loads(out)
    count = len(doc["spectrum"])
    doc["spectrum"].pop()
    assert f"{count - 1} of {count} modes" in verdict(item, (code, json.dumps(doc), err))[2][0]
    assert "raised ValueError" in verdict(item, ValueError("boom"))[2][0]
    assert "exit code 1" in verdict(item, (1, "", "error: no roots"))[2][0]


def test_cracked_workload_checks_its_spectra():
    item, spectrum = first_passing(workloads.build("cracked", 1, GOLDEN))
    short = type(spectrum)(spectrum.roots[:-1])
    assert f"{len(short)} of {len(spectrum)} modes" in verdict(item, short)[2][0]
    unordered = type(spectrum)(spectrum.roots[::-1])
    assert "not ascending" in verdict(item, unordered)[2][0]


def test_changed_output_in_a_later_pass_is_a_failure():
    item, (code, out, err) = cracked_json_freq(3)
    verdicts = run.Verdicts([item])
    verdicts.add([(code, out, err)])
    verdicts.add([(code, out + " ", err)])
    verdicts.finish()
    assert (verdicts.attempted, verdicts.failed) == (2, 1)


def test_shooting_oracle_matches_closed_form_without_crack():
    beta, eta = 1.3, 0.7
    for n in (1, 2, 3):
        k = oracle.closed_form_K(n, beta, eta)
        assert oracle.straddles(k, beta, eta, alpha=0.4, theta=0.0)
        assert not oracle.straddles(k * (1 + 1e-4), beta, eta, alpha=0.4, theta=0.0)


def test_closed_form_spectrum_keeps_repeats():
    beta = math.pi / math.sqrt(0.4)
    assert oracle.closed_form_spectrum(2, beta, 0.0) == pytest.approx([0.36, 0.36])


def spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_gauge_readings_are_left_out_of_the_latency():
    items = [
        workloads.Item("spin", lambda: spin(0.05), lambda out: None),
        workloads.Item("instant", lambda: None, lambda out: None),
    ]
    done = run.timed_pass(items)
    assert 0.03 < done.measured[0] < 0.05
    assert 0.0 <= done.measured[1] < 0.005
    assert all(x > 0 for x in done.latencies)
    assert done.slowdown() > 0


def test_nearest_readings():
    at = run.array("d", [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert run.nearest(at, 2.2) == [2, 3, 1]
    assert run.nearest(at, -1.0) == [0, 1, 2]
    assert run.nearest(at, 9.0) == [5, 4, 3]


def test_pass_count_depends_on_the_arguments_only():
    assert run.pass_count(36) == 36 // run.PASS_S
    assert run.pass_count(1) == run.MIN_PASSES


def traced_counts(seed: int) -> dict:
    """Counts of one traced pass over a slice of both workloads."""
    queries = workloads.build("queries", seed, GOLDEN)
    items = (
        workloads.build("figures", seed, GOLDEN)[:2]
        + workloads.build("cracked", seed, GOLDEN)[:2]
        + [it for it in queries if "--crack-psi" in it.label][:2]
        + queries[:6]
    )
    tracer = spans.Tracer(arch_resonance)
    tracer.install()
    try:
        run.timed_pass(items)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.take())
    return {name: value for name, (value, unit, _) in metrics.items() if unit != "s"}


def test_traced_counts_repeat_exactly():
    first, second = traced_counts(5), traced_counts(5)
    assert first == second
    assert first["solver.find_frequencies.calls"] > 0
    assert first["kernel.assemble_cracked.calls"] > 0


def test_uninstall_restores_the_program():
    original = arch_resonance.kernel.det_sign_logmag
    tracer = spans.Tracer(arch_resonance)
    tracer.install()
    assert arch_resonance.kernel.det_sign_logmag is not original
    tracer.uninstall()
    assert arch_resonance.kernel.det_sign_logmag is original


def test_counts_of_one_figure_point():
    """fig5 at beta = 1, eta = 1: a sweep solve refines 15 brackets for the
    default 5 modes, of which the sweep reports mode 1."""
    item = workloads.cli_item(
        ["sweep", "--param", "radius", "--from", "2", "--to", "2.45", "--steps", "2",
         "--chirality", "armchair"],
        lambda out, err: None,
    )
    tracer = spans.Tracer(arch_resonance)
    tracer.install()
    try:
        item.call()
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.take())
    assert metrics["solver.find_frequencies.calls"][0] == 2
    assert metrics["solver.det_evals_per_solve"][0] == 2075
    assert metrics["solver.refine.useful_ratio"][0] == pytest.approx(5 / 15)
    assert metrics["cli.parse.calls"][0] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
