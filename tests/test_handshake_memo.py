"""The testbed's handshake memo changes no result, only the work done.

A memoised handshake must equal the unmemoised one field for field, and
every stateful step (OCSP staples, CRL/OCSP fetches, proxy logs,
telemetry counters, failure-triggered validation disabling) must still
happen once per logical handshake.  The property test drives the same
generated scenario through two fresh testbeds: one as the program runs
it, one with every handshake sent down the engine's private unmemoised
path.  Certificates take their serials from a process-wide counter, and
process-wide caches (the root universe's certificates, the probe root)
mint theirs on first use, so a warm-up run fills those caches and both
compared runs then start the counter at the same value.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import random
import weakref
from datetime import timedelta
from unittest import mock

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import api, telemetry
from repro.analysis.export import campaign_to_document
from repro.core import ActiveExperimentCampaign
from repro.core.passthrough import PassthroughExperiment
from repro.devices import build_catalog, device_by_name
from repro.devices.profile import STUDY_MONTHS, month_to_date
from repro.devices.policies import RevocationBehavior
from repro.longitudinal import PassiveTraceGenerator
from repro.mitm import AttackMode, AttackerToolbox, InterceptionProxy, VersionProbeResponder
from repro.pki import certificate
from repro.pki.revocation import RevocationMethod
from repro.pki.validation import ValidationErrorCode
from repro.roothistory import build_default_universe
from repro.testbed import Testbed
from repro.testbed.cloud import month_of
from repro.tls import HandshakeState, ProtocolVersion, engine
from repro.tlslib import ClientConfig, library

_UNIVERSE = build_default_universe()

#: Samsung TV's profile checking revocation by CRL alone: no catalog
#: instance ends up on the CRL method (OCSP or stapling wins), so the
#: property test adds one to cover CRL fetches.
_CRL_DEVICE = dataclasses.replace(
    device_by_name("Samsung TV"),
    name="Samsung TV (CRL only)",
    revocation=RevocationBehavior(methods=frozenset({RevocationMethod.CRL})),
)
_PROFILES = {profile.name: profile for profile in (*build_catalog(), _CRL_DEVICE)}

#: Always driven: validation disabling after failures, fallback retries,
#: stapling, OCSP and CRL checking.
_ALWAYS = ("Yi Camera", "Roku TV", "Wink Hub 2", "Apple TV", _CRL_DEVICE.name)

#: Destinations per device the scenario connects to.
_DESTINATIONS = 3


#: Stands in the plan for a proxy built fresh for each handshake, as the
#: root-store prober builds one per probe.
_FRESH_PROXY = object()


def _unmemoised(client, responder, hostname, when, application_data, memo):
    return engine._handshake_unmemoised(client, responder, hostname, when, application_data)


def _scenario(testbed: Testbed, names: list[str], month: int, seed: int) -> dict:
    """Connect every chosen device to genuine servers, every proxy mode and
    version probes, twice over, revoking leaves between the passes."""
    rng = random.Random(seed)
    toolbox = AttackerToolbox(issuing_ca=testbed.anchor(0))
    target_root = testbed.anchor(1).certificate
    # One on-path proxy per mode sees every device and hostname.
    proxies = [
        InterceptionProxy(
            toolbox=toolbox,
            mode=mode,
            target_root=target_root if mode is AttackMode.SPOOFED_CA else None,
        )
        for mode in AttackMode
    ]
    fresh_hellos = []
    results, disabled, registries = [], [], {}
    plan = []
    for name in names:
        device = testbed.device(_PROFILES[name])
        for destination in device.profile.destinations[:_DESTINATIONS]:
            genuine = testbed.server_for(destination)
            registries[destination.server.anchor_index] = genuine.registry
            responders = [genuine, *proxies, _FRESH_PROXY] + [
                VersionProbeResponder(version=version, chain=genuine.chain)
                for version in (ProtocolVersion.TLS_1_0, ProtocolVersion.TLS_1_1)
            ]
            plan += [(device, destination, responder) for responder in responders]
    for round_number in range(2):
        order = list(plan)
        rng.shuffle(order)
        for device, destination, responder in order:
            # Mostly inside the study, sometimes far enough out that the
            # presented certificates are not yet valid or have expired.
            years = rng.choice((0, 0, 0, -12, 18))
            if (
                round_number == 0
                and device.name in _ALWAYS
                and responder is testbed.server_for(destination)
            ):
                # Revocation is checked only for a chain that validates, so
                # the first pass's genuine connections of the always-driven
                # devices stay inside the validity window: every example
                # then fetches a CRL and asks an OCSP responder.
                years = 0
            when = month_to_date(month) + timedelta(days=rng.randrange(28) + 365 * years)
            if responder is _FRESH_PROXY:
                responder = InterceptionProxy(
                    toolbox=toolbox, mode=AttackMode.SPOOFED_CA, target_root=target_root
                )
                fresh_hellos.append(responder.observed_hellos)
            connection = device.connect_destination(
                destination, responder, month=month + round_number, when=when
            )
            results.extend(connection.attempt.attempts)
            disabled.append(
                [instance.validation_disabled for instance in device.instances.values()]
            )
        if round_number == 0:
            for device, destination, responder in plan:
                if responder is testbed.server_for(destination) and rng.random() < 0.3:
                    responder.registry.revoke(responder.chain[0])
    counters = {
        metric.name: metric.series()
        for metric in telemetry.get_registry().metrics()
        if isinstance(metric, telemetry.Counter)
    }
    return {
        "results": results,
        "disabled": disabled,
        "observed_hellos": [proxy.observed_hellos for proxy in proxies] + fresh_hellos,
        "revocation": {
            index: (registry.crl_fetches, registry.ocsp.queries_served)
            for index, registry in sorted(registries.items())
        },
        "counters": counters,
        "memo_entries": len(testbed.handshake_memo),
    }


def _run(names: list[str], month: int, seed: int, *, memoised: bool) -> dict:
    with mock.patch.object(certificate, "_SERIAL_COUNTER", itertools.count(10**9)):
        testbed = Testbed(_UNIVERSE)
        telemetry.configure(enabled=True)
        try:
            if memoised:
                return _scenario(testbed, names, month, seed)
            with mock.patch.object(engine, "_perform_handshake", _unmemoised):
                return _scenario(testbed, names, month, seed)
        finally:
            telemetry.configure(enabled=False)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    extra=st.lists(st.sampled_from(sorted(_PROFILES)), max_size=3, unique=True),
    month=st.integers(min_value=0, max_value=STUDY_MONTHS - 2),
)
# Regression: with the first pass's genuine connections dated at random,
# this draw's CRL-only device never fetched a CRL.
@example(seed=9186058, extra=["Amazon Echo Dot"], month=0)
def test_memoised_equals_unmemoised(seed, extra, month):
    names = sorted(set(_ALWAYS) | set(extra))
    _run(names, month, seed, memoised=True)  # warm-up
    memoised = _run(names, month, seed, memoised=True)
    reference = _run(names, month, seed, memoised=False)

    for part in ("results", "disabled", "observed_hellos", "revocation", "counters"):
        assert memoised[part] == reference[part], part
    handshakes = len(memoised["results"])
    assert sum(memoised["counters"]["iotls_handshakes_total"].values()) == handshakes
    # Revocation was checked both ways, and repeated inputs hit the memo.
    assert any(crl for crl, _ in memoised["revocation"].values())
    assert any(ocsp for _, ocsp in memoised["revocation"].values())
    assert 0 < memoised["memo_entries"] < handshakes
    assert reference["memo_entries"] == 0


def test_fresh_proxies_share_one_client_hello(monkeypatch):
    """Answers are kept per responder, hellos per client and hostname: a
    probe campaign's fresh proxy per reboot builds no new ClientHello."""
    built = []
    original = library.LibraryClient.build_client_hello

    def counting(self, hostname):
        built.append(hostname)
        return original(self, hostname)

    monkeypatch.setattr(library.LibraryClient, "build_client_hello", counting)
    testbed = Testbed(_UNIVERSE)
    device = testbed.device("Wink Hub 2")
    destination = device.first_destination()
    toolbox = AttackerToolbox(issuing_ca=testbed.anchor(0))
    hellos = []
    for record in _UNIVERSE.common_records()[:20]:
        proxy = InterceptionProxy(
            toolbox=toolbox, mode=AttackMode.SPOOFED_CA, target_root=record.certificate
        )
        connection = device.connect_destination(destination, proxy)
        assert connection.attempt.final.state is HandshakeState.CLIENT_REJECTED
        hellos += proxy.observed_hellos
    assert built == [destination.hostname]
    assert len(hellos) == 20
    assert all(hello is hellos[0] for hello in hellos)
    # Each proxy's answer went with the proxy; the live one's remains.
    assert len(testbed.handshake_memo) == 1


def test_one_attacker_per_testbed_changes_no_campaign(monkeypatch):
    """Every auditor shares the testbed's attacker, and with it its forged
    chains, negotiations and spoof leaf keys; a toolbox per auditor, as
    each auditor once built its own, gives the same campaign."""
    built = []
    original_init = AttackerToolbox.__post_init__

    def counting(self):
        built.append(self)
        original_init(self)

    monkeypatch.setattr(AttackerToolbox, "__post_init__", counting)
    shared = campaign_to_document(ActiveExperimentCampaign(Testbed(_UNIVERSE)).run())
    assert len(built) == 1
    monkeypatch.setattr(
        Testbed, "attacker", lambda self: AttackerToolbox(issuing_ca=self.anchor(0))
    )
    fresh = campaign_to_document(ActiveExperimentCampaign(Testbed(_UNIVERSE)).run())
    assert len(built) == 1 + 5  # three auditors, the passthrough and its auditor
    assert shared == fresh


def _passthrough_run() -> tuple[list, dict]:
    telemetry.configure(enabled=True)
    try:
        outcomes = PassthroughExperiment(Testbed(_UNIVERSE)).run_all()
        counters = {
            metric.name: metric.series()
            for metric in telemetry.get_registry().metrics()
            if isinstance(metric, telemetry.Counter)
        }
    finally:
        telemetry.configure(enabled=False)
    return outcomes, counters


def test_passthrough_rerun_goes_through_the_memo(monkeypatch):
    """The passthrough re-run's routing responders are memoizable: none of
    its handshakes takes the unmemoised path, and its outcomes and
    counters equal a re-run with every handshake unmemoised."""
    unmemoised = []
    original = engine._handshake_unmemoised

    def counting(*args):
        unmemoised.append(args[2])
        return original(*args)

    monkeypatch.setattr(engine, "_handshake_unmemoised", counting)
    memoised = _passthrough_run()
    assert unmemoised == []
    with mock.patch.object(engine, "_perform_handshake", _unmemoised):
        reference = _passthrough_run()
    assert unmemoised
    assert memoised == reference


def test_memo_key_covers_every_client_config_field():
    """A new ClientConfig field must be keyed or left to ``settle``."""
    keyed = set(library._MEMO_FIELDS) | {"root_store"}
    settled = {"revocation_method", "revocation_transport"}
    assert {field.name for field in dataclasses.fields(ClientConfig)} == keyed | settled


def test_root_store_change_is_not_a_stale_hit():
    testbed = Testbed(_UNIVERSE)
    device = testbed.device("Nest Thermostat")  # OpenSSL: alerts unknown_ca
    destination = device.profile.destinations[0]
    server = testbed.server_for(destination)
    when = month_to_date(20)

    def connect():
        return device.connect_destination(destination, server, month=20, when=when)

    assert connect().attempt.final.state is HandshakeState.ESTABLISHED
    entries = len(testbed.handshake_memo)
    assert entries > 0
    assert connect().attempt.final.state is HandshakeState.ESTABLISHED
    assert len(testbed.handshake_memo) == entries  # a hit

    assert device.root_store.remove_by_name(server.chain[-1].issuer) > 0
    final = connect().attempt.final
    assert final.state is HandshakeState.CLIENT_REJECTED
    assert final.verdict.validation.code is ValidationErrorCode.UNKNOWN_CA
    assert final.client_alert.description.name == "UNKNOWN_CA"
    assert len(testbed.handshake_memo) > entries


def test_instance_builds_a_client_only_when_its_inputs_change(monkeypatch):
    """A client depends on the config epoch, the validation state and the
    root store's revision, so only a change to one of them builds one."""
    built = []
    original_init = ClientConfig.__init__

    def counting_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(ClientConfig, "__init__", counting_init)
    testbed = Testbed(_UNIVERSE)
    memo = testbed.handshake_memo

    def builds(device, destination, responder, month, day=15):
        before = len(built)
        connection = device.connect_destination(
            destination, responder, month=month, when=month_to_date(month, day)
        )
        return len(built) - before, connection.attempt.final

    apple = testbed.device("Apple TV")  # config epochs from months 0, 9 and 16
    destination = apple.profile.destinations[0]
    server = testbed.server_for(destination)
    assert builds(apple, destination, server, 2)[0] == 1
    assert builds(apple, destination, server, 2, day=3)[0] == 0
    assert builds(apple, destination, server, 10)[0] == 1
    assert builds(apple, destination, server, 12)[0] == 0

    yi = testbed.device("Yi Camera")  # disables validation after 3 failures
    instance = yi.instance("yi-tls")
    destination = next(d for d in yi.profile.destinations if d.instance == "yi-tls")
    proxy = InterceptionProxy(
        toolbox=AttackerToolbox(issuing_ca=testbed.anchor(0)), mode=AttackMode.UNKNOWN_CA
    )
    assert builds(yi, destination, proxy, 20)[0] == 1
    while not instance.validation_disabled:
        count, final = builds(yi, destination, proxy, 20)
        assert count == 0
        assert final.state is HandshakeState.CLIENT_REJECTED
    entries = len(memo)
    count, final = builds(yi, destination, proxy, 20)
    assert count == 1
    assert final.state is HandshakeState.ESTABLISHED
    assert len(memo) == entries + 1  # a miss: the client no longer validates
    assert builds(yi, destination, proxy, 20)[0] == 0

    destination = apple.profile.destinations[0]
    assert apple.root_store.remove_by_name(server.chain[-1].issuer) > 0
    count, final = builds(apple, destination, server, 12)
    assert count == 1
    assert final.state is HandshakeState.CLIENT_REJECTED
    assert builds(apple, destination, server, 12)[0] == 0


def test_trace_memo_holds_one_entry_per_distinct_input(monkeypatch):
    """Keying by epoch position and a hashed-once client key partitions a
    trace's handshakes exactly as the declared inputs do."""
    inputs = set()
    original = engine.HandshakeMemo.handshake

    def recording(self, client, client_key, responder, hostname, when, application_data):
        config, month = client.config, month_of(when)
        inputs.add(
            (
                id(responder),
                client.library,
                library._memo_fields(config),
                config.root_store.serial,
                config.root_store.revision,
                hostname,
                responder.spec.epoch_at(month),
            )
        )
        return original(self, client, client_key, responder, hostname, when, application_data)

    monkeypatch.setattr(engine.HandshakeMemo, "handshake", recording)
    testbed = Testbed(_UNIVERSE)
    PassiveTraceGenerator(testbed, scale=40).generate()
    assert len(testbed.handshake_memo) == len(inputs) > 0


def test_trace_run_releases_its_testbed(tmp_path, monkeypatch):
    """The memo lives on the testbed, so a finished run frees both.

    Reference counting alone frees them: a testbed left to the cyclic
    collector keeps its memo resident across the runs that follow.
    """
    built: list[weakref.ref] = []
    original_init = Testbed.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(Testbed, "__init__", recording_init)
    config = api.RunConfig(scale=1, seed="memo-lifetime", ledger=tmp_path / "ledger.jsonl")
    gc.disable()
    try:
        api.execute("trace", config)
        assert built
        assert all(ref() is None for ref in built)
    finally:
        gc.enable()
    api.execute("trace", config)
    gc.collect()
    assert len(built) == 2
    assert all(ref() is None for ref in built)
