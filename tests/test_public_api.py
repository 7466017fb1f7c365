"""Smoke tests for the package's public surface."""

from __future__ import annotations

import pytest

import repro


class TestTopLevelAPI:
    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize(
        "name",
        [
            "Testbed",
            "SmartPlug",
            "Device",
            "ActiveExperimentCampaign",
            "RootStoreProber",
            "InterceptionAuditor",
            "DowngradeAuditor",
            "PassiveTraceGenerator",
            "build_catalog",
            "build_default_universe",
        ],
    )
    def test_lazy_exports_resolve(self, name):
        assert getattr(repro, name) is not None

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.definitely_not_a_thing

    def test_subpackage_all_exports_importable(self):
        import importlib

        for module_name in (
            "repro.pki",
            "repro.tls",
            "repro.tlslib",
            "repro.roothistory",
            "repro.devices",
            "repro.testbed",
            "repro.mitm",
            "repro.core",
            "repro.fingerprint",
            "repro.longitudinal",
            "repro.analysis",
            "repro.mitigations",
        ):
            module = importlib.import_module(module_name)
            for exported in getattr(module, "__all__", ()):
                assert getattr(module, exported, None) is not None, (module_name, exported)


class TestColdImport:
    """The package runs on the standard library alone."""

    def test_cli_import_loads_neither_scipy_nor_networkx(self):
        """A fresh ``import repro.cli`` loads no third-party module: the
        §5.1 test is closed-form, the chunk fold tallies with integer
        lists and Figure 5 is a dict of adjacency sets.  Modules the
        interpreter loaded before the import (``site`` hooks) are not
        counted.  A subprocess, because this test process has imported
        test-only libraries already."""
        import os
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import sys; before = set(sys.modules); import repro.cli; "
            "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(loaded - set(sys.stdlib_module_names) - {'repro'}))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert completed.stdout.strip() == "[]"

    def test_every_absolute_import_is_stdlib_or_repro(self):
        """Every ``import`` in the package names a standard-library
        module or ``repro`` itself, including lazy imports inside
        functions and ``TYPE_CHECKING`` blocks that no import probe
        would execute."""
        import ast
        import sys
        from pathlib import Path

        allowed = set(sys.stdlib_module_names) | {"repro"}
        package = Path(repro.__file__).parent
        outside = []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    if name.partition(".")[0] not in allowed:
                        relative = path.relative_to(package.parent)
                        outside.append(f"{relative}:{node.lineno}: {name}")
        assert outside == []
