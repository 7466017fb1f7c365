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
    def test_cli_import_loads_neither_scipy_nor_networkx(self):
        """A fresh ``import repro.cli`` leaves the statistics and graph
        libraries unloaded: the §5.1 test is closed-form and networkx is
        imported only where Figure 5 is built.  A subprocess, because
        this test process may have imported either already."""
        import os
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import sys, repro.cli; "
            "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert completed.stdout.strip() == "[]"
