"""Code-version salt: stability, sensitivity, and git provenance."""

import pkgutil
import string

import repro
from repro.service.versioning import (
    DEFAULT_SALT_PACKAGES,
    code_version_salt,
    git_sha,
)

#: Top-level parts of ``repro`` left out of the salt on purpose, each
#: with the reason no stored result depends on its source.
UNSALTED = {
    "analysis": "repro-lint: reads the source, never runs an experiment",
    "errors.py": "exception types; a message edit moves no result",
    "obs": "telemetry: spans, metrics and logs beside a run, never its numbers",
    "report": "renders stored results after the fact",
    "service": "serving plumbing: store, queue and workers around a run",
}


class TestCodeVersionSalt:
    def test_short_hex_and_stable_within_a_process(self):
        salt = code_version_salt()
        assert len(salt) == 16
        assert set(salt) <= set(string.hexdigits.lower())
        assert code_version_salt() == salt  # cached, deterministic

    def test_salt_depends_on_package_selection(self):
        # A different source set must hash differently — otherwise the
        # salt could not notice edits in the packages it covers.
        assert code_version_salt(("cache",)) != code_version_salt(("exec",))
        assert code_version_salt(("cache",)) != code_version_salt()

    def test_default_packages_cover_the_simulator(self):
        for package in ("cache", "exec", "experiments", "memsys", "nn"):
            assert package in DEFAULT_SALT_PACKAGES
        # Service plumbing is deliberately excluded: refactoring the
        # serving layer must not invalidate stored simulation results.
        assert "service" not in DEFAULT_SALT_PACKAGES
        assert "analysis" not in DEFAULT_SALT_PACKAGES

    def test_every_top_level_part_is_salted_or_listed_as_unsalted(self):
        # A package missing from both lists would let a store serve
        # results its edited code no longer reproduces.
        parts = {
            name if is_package else f"{name}.py"
            for _, name, is_package in pkgutil.iter_modules(repro.__path__)
        }
        assert parts == set(DEFAULT_SALT_PACKAGES) | set(UNSALTED)
        assert not set(DEFAULT_SALT_PACKAGES) & set(UNSALTED)


class TestGitSha:
    def test_best_effort_sha(self):
        sha = git_sha()
        # None outside a checkout; a full 40-char hex SHA inside one.
        if sha is not None:
            assert len(sha) == 40
            assert set(sha) <= set(string.hexdigits.lower())
