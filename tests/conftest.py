"""Shared fixtures plus the acceptance-line reporter.

Tests marked @pytest.mark.acceptance(criterion=N, label=...) get one
"criterion N [PASS/FAIL] label" line in the terminal summary, so the
headline checks are readable without scrolling the full test log. Under it
come the comparisons the test recorded through the ``margin`` fixture, each
with its measured values and its margin, positive when the comparison
holds, so a PASS shows how close it came to failing.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from diffunlearn.data import circle_mixture, gen_mixture
from diffunlearn.diffusion import NoiseSchedule
from diffunlearn.nn import init_model
from diffunlearn.train import TrainConfig, pretrain

_acceptance_results = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(criterion, label): headline end-to-end check, reported "
        "as one summary line per criterion",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    num = marker.kwargs.get("criterion", 0)
    label = marker.kwargs.get("label", item.name)
    # A fixture blowing up never reaches the call phase; count that as a fail
    # rather than dropping the line.
    if report.when == "call" or (report.when == "setup" and report.failed):
        passed = report.when == "call" and report.passed
        margins = [value for key, value in item.user_properties if key == "margin"]
        _acceptance_results[num] = (label, passed, margins)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_acceptance_results):
        label, ok, margins = _acceptance_results[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num} [{verdict}] {label}")
        for line in margins:
            terminalreporter.write_line(f"    {line}")


@pytest.fixture
def margin(request):
    """``margin(name, value, sense, bound_name, bound)`` records one headline
    comparison, ``value`` ``sense`` ``bound`` for a sense of ">=", ">", "<="
    or "<", for the acceptance summary. Record before asserting, so that a
    failing test still shows every value."""

    def record(name, value, sense, bound_name, bound):
        # Positive when the comparison holds (strictly, for ">" and "<").
        gap = value - bound if sense.startswith(">") else bound - value
        request.node.user_properties.append((
            "margin",
            f"{name} {value:.6g} {sense} {bound_name} {bound:.6g}: margin {gap:+.3g}",
        ))

    return record


@pytest.fixture(scope="session")
def toy3():
    """Three-class circle mixture with a converged small denoiser.

    Session-scoped: pretraining costs a couple of seconds and several test
    modules probe the same checkpoint.
    """
    spec = circle_mixture(num_classes=3, radius=4.0, sigma=0.3, samples_per_class=300)
    data = gen_mixture(spec, 100)
    schedule = NoiseSchedule(40, 1e-4, 0.15)
    model = init_model(2, (48, 48), 3, 40, np.random.default_rng(1))
    model, history = pretrain(
        model,
        data,
        schedule,
        TrainConfig(steps=6000, batch_size=96, lr=0.1, lr_final=0.01),
        2,
    )
    return SimpleNamespace(
        spec=spec, data=data, schedule=schedule, model=model, history=history
    )
