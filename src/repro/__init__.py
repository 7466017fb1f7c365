"""IoTLS reproduction library.

A full, simulation-backed reproduction of *IoTLS: Understanding TLS Usage
in Consumer IoT Devices* (Paracha et al., ACM IMC 2021): simulated PKI and
TLS substrates, behavioural models of the paper's 40-device testbed, an
interception proxy, the TLS-alert root-store probing technique, TLS
fingerprinting, and a longitudinal analysis pipeline that regenerates
every table and figure in the paper's evaluation.

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

#: Part of every config digest, the key of the run ledger's result cache
#: (``iotls serve``).  Bump it whenever a run's output moves on purpose,
#: so that results the previous release cached stop being served.
__version__ = "1.1.0"


def __getattr__(name):
    """Lazy top-level conveniences: ``repro.Testbed``, ``repro.Device``,
    ``repro.ActiveExperimentCampaign``, ``repro.RootStoreProber``,
    ``repro.PassiveTraceGenerator`` -- imported on first use so that
    ``import repro`` stays instant."""
    lazy = {
        "Testbed": ("repro.testbed", "Testbed"),
        "SmartPlug": ("repro.testbed", "SmartPlug"),
        "Device": ("repro.devices", "Device"),
        "ActiveExperimentCampaign": ("repro.core", "ActiveExperimentCampaign"),
        "RootStoreProber": ("repro.core", "RootStoreProber"),
        "InterceptionAuditor": ("repro.core", "InterceptionAuditor"),
        "DowngradeAuditor": ("repro.core", "DowngradeAuditor"),
        "PassiveTraceGenerator": ("repro.longitudinal", "PassiveTraceGenerator"),
        "build_catalog": ("repro.devices", "build_catalog"),
        "build_default_universe": ("repro.roothistory", "build_default_universe"),
        "RunConfig": ("repro.api", "RunConfig"),
        "run_trace": ("repro.api", "run_trace"),
        "run_audit": ("repro.api", "run_audit"),
        "run_probe": ("repro.api", "run_probe"),
        "run_report": ("repro.api", "run_report"),
        "run_pcap": ("repro.api", "run_pcap"),
    }
    if name in lazy:
        import importlib

        module_name, attribute = lazy[name]
        return getattr(importlib.import_module(module_name), attribute)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
