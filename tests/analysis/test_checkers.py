"""Per-checker fixture tests: known violations at known lines."""

import textwrap

from repro.analysis import run_analysis
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.exceptions import ExceptionChecker
from repro.analysis.checkers.registration import RegistrationChecker
from repro.analysis.checkers.segments import SegmentsChecker
from repro.analysis.checkers.service import ServiceChecker
from repro.analysis.checkers.telemetry import TelemetryChecker
from repro.analysis.checkers.units import UnitsChecker


def lint(tmp_path, name, source, checker):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return run_analysis([path], checkers=[checker]).findings


class TestDeterminism:
    def test_flags_clock_and_unseeded_rng(self, tmp_path):
        findings = lint(
            tmp_path,
            "sim.py",
            """\
            import os
            import time

            import numpy as np


            def unseeded():
                t = time.time()
                x = np.random.rand(4)
                return os.urandom(8), t, x
            """,
            DeterminismChecker(),
        )
        assert [f.rule for f in findings] == ["DET001"] * 3
        assert [f.line for f in findings] == [8, 9, 10]
        assert "time.time()" in findings[0].message

    def test_seeded_constructs_pass(self, tmp_path):
        findings = lint(
            tmp_path,
            "sim.py",
            """\
            import random

            import numpy as np


            def seeded():
                rng = np.random.default_rng(7)
                dice = random.Random(7)
                return rng.normal() + dice.random()
            """,
            DeterminismChecker(),
        )
        assert findings == []

    def test_resolves_through_aliases(self, tmp_path):
        findings = lint(
            tmp_path,
            "sim.py",
            """\
            from time import time as wall


            def tick():
                return wall()
            """,
            DeterminismChecker(),
        )
        assert [(f.rule, f.line) for f in findings] == [("DET001", 5)]

    def test_cli_modules_allowlisted(self, tmp_path):
        findings = lint(
            tmp_path,
            "cli.py",
            """\
            import time


            def elapsed(start):
                return time.time() - start
            """,
            DeterminismChecker(),
        )
        assert findings == []

    def test_service_package_allowlisted(self, tmp_path):
        # Job latency / timeouts / backoff are host-time by definition.
        path = tmp_path / "repro" / "service" / "queue.py"
        path.parent.mkdir(parents=True)
        for parent in (tmp_path / "repro", tmp_path / "repro" / "service"):
            (parent / "__init__.py").write_text("")
        path.write_text("import time\n\n\ndef now():\n    return time.monotonic()\n")
        report = run_analysis([path], checkers=[DeterminismChecker()])
        assert report.findings == []


class TestUnits:
    def test_flags_raw_capacity_spellings(self, tmp_path):
        findings = lint(
            tmp_path,
            "platform.py",
            """\
            CAP = 1024 ** 3
            BW = 1e9
            CHAIN = 4 * 1024 * 1024
            SHIFT = 1 << 30
            FINE = 1024
            """,
            UnitsChecker(),
        )
        assert [f.rule for f in findings] == ["UNIT001"] * 4
        assert [f.line for f in findings] == [1, 2, 3, 4]
        assert "units.GB" in findings[1].message

    def test_units_module_allowlisted(self, tmp_path):
        findings = lint(tmp_path, "units.py", "GiB = 1024 ** 3\n", UnitsChecker())
        assert findings == []

    def test_named_constants_pass(self, tmp_path):
        findings = lint(
            tmp_path,
            "platform.py",
            """\
            from repro.units import GiB, gb_per_s

            CAP = 32 * GiB
            BW = gb_per_s(39.4)
            """,
            UnitsChecker(),
        )
        assert findings == []


class TestTelemetry:
    def test_flags_module_scope_handle_and_naked_span(self, tmp_path):
        findings = lint(
            tmp_path,
            "model.py",
            """\
            from repro import obs

            tele = obs.get()


            def bad():
                handle = obs.get()
                span = handle.span("work")
                span.end()
            """,
            TelemetryChecker(),
        )
        assert [(f.rule, f.line) for f in findings] == [("TEL001", 3), ("TEL001", 8)]

    def test_context_manager_forms_pass(self, tmp_path):
        findings = lint(
            tmp_path,
            "model.py",
            """\
            import contextlib

            from repro import obs


            def plain():
                tele = obs.get()
                with tele.span("work", cat="x") as span:
                    span.set(ok=True)


            def conditional():
                tele = obs.get()
                with contextlib.ExitStack() as stack:
                    span = (
                        stack.enter_context(tele.span("work"))
                        if tele.enabled
                        else None
                    )
                    return span
            """,
            TelemetryChecker(),
        )
        assert findings == []

    def test_obs_package_exempt(self, tmp_path):
        path = tmp_path / "repro" / "obs" / "spans.py"
        path.parent.mkdir(parents=True)
        for parent in (tmp_path / "repro", tmp_path / "repro" / "obs"):
            (parent / "__init__.py").write_text("")
        path.write_text("def span(tracer):\n    return tracer.span('x')\n")
        report = run_analysis([path], checkers=[TelemetryChecker()])
        assert report.findings == []


class TestExceptions:
    def test_flags_assert_and_broad_except(self, tmp_path):
        findings = lint(
            tmp_path,
            "model.py",
            """\
            def validate(x):
                assert x > 0


            def swallow():
                try:
                    return 1
                except Exception:
                    return None
            """,
            ExceptionChecker(),
        )
        assert [(f.rule, f.line) for f in findings] == [("EXC001", 2), ("EXC001", 8)]
        assert "python -O" in findings[0].message

    def test_reraising_barrier_and_narrow_handler_pass(self, tmp_path):
        findings = lint(
            tmp_path,
            "model.py",
            """\
            def barrier(resource):
                try:
                    return resource.use()
                except BaseException:
                    resource.close()
                    raise


            def narrow():
                try:
                    return 1
                except ValueError:
                    return None
            """,
            ExceptionChecker(),
        )
        assert findings == []


class TestRegistration:
    def write_experiments(self, tmp_path, registry, modules):
        pkg = tmp_path / "experiments"
        pkg.mkdir()
        (pkg / "registry.py").write_text(textwrap.dedent(registry))
        for name, source in modules.items():
            (pkg / name).write_text(textwrap.dedent(source))
        return pkg

    def test_registered_sweepable_module_passes(self, tmp_path):
        pkg = self.write_experiments(
            tmp_path,
            """\
            from experiments import fig1

            EXPERIMENTS = {"fig1": fig1.run}
            """,
            {
                "fig1.py": """\
                def sweep_spec(quick):
                    return None


                def run(quick=False):
                    return None
                """,
                "headline.py": """\
                def extract(data):
                    return {}


                HEADLINES = {"fig1": extract}
                """,
            },
        )
        report = run_analysis([pkg], checkers=[RegistrationChecker()])
        assert report.findings == []

    def test_unregistered_and_sweepless_module_flagged(self, tmp_path):
        pkg = self.write_experiments(
            tmp_path,
            """\
            from experiments import fig1

            EXPERIMENTS = {"fig1": fig1.run}
            """,
            {
                "fig1.py": "def sweep_spec(quick):\n    return None\n",
                "fig2.py": "def run(quick=False):\n    return None\n",
                "headline.py": 'HEADLINES = {"fig1": None}\n',
            },
        )
        findings = run_analysis([pkg], checkers=[RegistrationChecker()]).findings
        assert [f.rule for f in findings] == ["REG001", "REG001"]
        assert all(f.path.endswith("fig2.py") and f.line == 1 for f in findings)
        messages = " | ".join(f.message for f in findings)
        assert "not registered" in messages
        assert "sweep_spec" in messages

    def test_non_experiment_files_ignored(self, tmp_path):
        pkg = self.write_experiments(
            tmp_path,
            "EXPERIMENTS = {}\n",
            {"platform.py": "def run():\n    return None\n"},
        )
        report = run_analysis([pkg], checkers=[RegistrationChecker()])
        assert report.findings == []

    def test_registered_name_without_headline_hook_flagged(self, tmp_path):
        pkg = self.write_experiments(
            tmp_path,
            """\
            from experiments import fig1, fig2

            EXPERIMENTS = {"fig1": fig1.run, "fig2": fig2.run}
            """,
            {
                "fig1.py": (
                    "def sweep_spec(quick):\n    return None\n"
                    "def run(quick=False):\n    return None\n"
                ),
                "fig2.py": (
                    "def sweep_spec(quick):\n    return None\n"
                    "def run(quick=False):\n    return None\n"
                ),
                "headline.py": 'HEADLINES = {"fig1": None}\n',
            },
        )
        findings = run_analysis([pkg], checkers=[RegistrationChecker()]).findings
        assert [f.rule for f in findings] == ["REG001"]
        assert findings[0].path.endswith("headline.py")
        assert "'fig2'" in findings[0].message
        assert "HEADLINES" in findings[0].message

    def test_registry_without_headline_module_flagged(self, tmp_path):
        pkg = self.write_experiments(
            tmp_path,
            """\
            from experiments import fig1

            EXPERIMENTS = {"fig1": fig1.run}
            """,
            {
                "fig1.py": (
                    "def sweep_spec(quick):\n    return None\n"
                    "def run(quick=False):\n    return None\n"
                ),
            },
        )
        findings = run_analysis([pkg], checkers=[RegistrationChecker()]).findings
        assert [f.rule for f in findings] == ["REG001"]
        assert findings[0].path.endswith("registry.py")
        assert "headline.py" in findings[0].message


class TestService:
    def test_flags_blocking_calls_in_handler(self, tmp_path):
        findings = lint(
            tmp_path,
            "http.py",
            """\
            import time
            from http.server import BaseHTTPRequestHandler

            from repro.experiments.registry import run_experiment


            class Handler(BaseHTTPRequestHandler):
                def do_POST(self):
                    time.sleep(1.0)
                    result = run_experiment("fig2", quick=True)
                    self.respond(result)
            """,
            ServiceChecker(),
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("SVC001", 9),
            ("SVC001", 10),
        ]
        assert "time.sleep" in findings[0].message
        assert "job queue" in findings[0].message

    def test_blocking_calls_outside_handlers_pass(self, tmp_path):
        findings = lint(
            tmp_path,
            "workers.py",
            """\
            from repro.experiments.registry import run_experiment


            def execute(job):
                return run_experiment(job.name, quick=job.quick)
            """,
            ServiceChecker(),
        )
        assert findings == []

    def test_flags_swallowed_job_error(self, tmp_path):
        findings = lint(
            tmp_path,
            "loop.py",
            """\
            from repro.errors import JobError, JobTimeoutError


            def bad(job):
                try:
                    job.run()
                except JobTimeoutError:
                    pass
                try:
                    job.run()
                except (ValueError, JobError):
                    ...
            """,
            ServiceChecker(),
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("SVC001", 7),
            ("SVC001", 11),
        ]
        assert "swallows" in findings[0].message

    def test_translated_job_error_passes(self, tmp_path):
        findings = lint(
            tmp_path,
            "loop.py",
            """\
            from repro.errors import JobError


            def good(job, service):
                try:
                    job.run()
                except JobError as error:
                    service.job_failed(job, error)
            """,
            ServiceChecker(),
        )
        assert findings == []


class TestSegments:
    def test_flags_unique_and_round_loops_in_hot_paths(self, tmp_path):
        findings = lint(
            tmp_path,
            "direct_mapped.py",
            """\
            import numpy as np


            class Cache:
                def llc_read(self, lines):
                    sets, first = np.unique(lines % 4, return_index=True)
                    return sets, first

                def llc_write(self, lines):
                    seg = self._segmenter.segment(lines, lines % 4)
                    for mask in seg.rounds():
                        self._apply(lines[mask])
            """,
            SegmentsChecker(),
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("SEG001", 6),
            ("SEG001", 11),
        ]
        assert "np.unique in hot path llc_read()" in findings[0].message
        assert "round loop in hot path llc_write()" in findings[1].message

    def test_flags_legacy_round_hook_definitions(self, tmp_path):
        findings = lint(
            tmp_path,
            "variant.py",
            """\
            class Variant:
                def _read_round(self, lines, traffic, tags):
                    return lines

                def _write_round(self, lines, traffic, tags):
                    return lines
            """,
            SegmentsChecker(),
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("SEG001", 2),
            ("SEG001", 5),
        ]
        assert "_apply_read/_apply_write" in findings[0].message

    def test_segmented_hot_path_and_cold_unique_pass(self, tmp_path):
        findings = lint(
            tmp_path,
            "direct_mapped.py",
            """\
            import numpy as np


            class Cache:
                def llc_read(self, lines):
                    seg = self._segmenter.segment(lines, lines % 4)
                    return self._apply_read(lines, seg)

                def describe_trace(self, lines):
                    # Cold path: one-off reporting may sort however it likes.
                    return np.unique(lines).size
            """,
            SegmentsChecker(),
        )
        assert findings == []

    def test_rounds_module_is_not_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            "rounds.py",
            """\
            import numpy as np


            class LegacyCache:
                def _rounds(self, sets):
                    yield np.unique(sets)

                def llc_read(self, lines):
                    for mask in self._rounds(lines % 4):
                        self._read_round(lines[mask])

                def _read_round(self, lines):
                    return lines
            """,
            SegmentsChecker(),
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("SEG001", 5),
            ("SEG001", 9),
            ("SEG001", 12),
        ]


class TestSuppressions:
    def test_inline_disable_moves_finding_to_suppressed(self, tmp_path):
        path = tmp_path / "model.py"
        path.write_text(
            "def f(x):\n"
            "    assert x > 0  # repro-lint: disable=EXC001\n"
        )
        report = run_analysis([path], checkers=[ExceptionChecker()])
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["EXC001"]

    def test_disable_is_rule_specific(self, tmp_path):
        path = tmp_path / "model.py"
        path.write_text(
            "def f(x):\n"
            "    assert x > 0  # repro-lint: disable=DET001\n"
        )
        report = run_analysis([path], checkers=[ExceptionChecker()])
        assert [f.rule for f in report.findings] == ["EXC001"]

    def test_comma_separated_rules(self, tmp_path):
        path = tmp_path / "model.py"
        path.write_text(
            "import time\n"
            "\n"
            "\n"
            "def f(x):\n"
            "    assert time.time() > x  # repro-lint: disable=DET001, EXC001\n"
        )
        report = run_analysis([path])
        assert report.findings == []
        assert sorted(f.rule for f in report.suppressed) == ["DET001", "EXC001"]
