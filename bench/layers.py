"""Per-layer call counts and self time, measured from outside the program.

The benchmark wraps public functions of the ``repro`` modules at run
time, from its own code: nothing under ``src/`` knows it is traced.
Each wrapper counts calls and accumulates *self* time -- the wall time
of the call minus the part covered by wrapped calls nested inside it --
so the layers' self times partition the traced op wall without double
counting.

Each thread keeps its own stack of open calls, so the fleet service's
executor threads never pop each other's frames.  The wrapped coroutines
(``serve.http.read_request`` and ``send_chunk``) never nest, so an
``async`` wrapper records the wall time of its await as self time, other
tasks' work included.  Counters are kept per thread and summed on
:meth:`LayerTracer.snapshot`, so the hot path takes no lock.

Wrappers reach only the process that installs them.  Spawned
warm-pool workers import ``repro`` afresh and run unwrapped; the serve
workload attributes pool time through ``WarmWorkerPool.stats()`` instead.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import threading
from time import perf_counter
from typing import Any, Callable

#: (layer, module, attribute) of every wrapped function; its metrics are
#: ``<layer>.<attribute>.<calls|self_us|share>``.  bench/README.md lists,
#: per layer, the workloads whose op_p50_norm_ms a change to it should move.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("tls.engine", "repro.tls.engine", "perform_handshake"),
    ("tlslib", "repro.tlslib.library", "LibraryClient.build_client_hello"),
    ("tlslib", "repro.tlslib.library", "LibraryClient.evaluate_response"),
    ("pki", "repro.pki.validation", "validate_chain"),
    ("testbed", "repro.testbed.cloud", "CloudServer.respond"),
    ("testbed", "repro.testbed.infrastructure", "Testbed.server_for"),
    ("testbed", "repro.testbed.infrastructure", "Testbed.device"),
    ("mitm", "repro.mitm.proxy", "InterceptionProxy.respond"),
    ("devices", "repro.devices.device", "Device.connect_destination"),
    ("longitudinal", "repro.longitudinal.generator",
     "PassiveTraceGenerator.generate_device_chunk"),
    ("core", "repro.core.interception", "InterceptionAuditor.audit_device"),
    ("core", "repro.core.downgrade", "DowngradeAuditor.audit_device_downgrade"),
    ("core", "repro.core.downgrade", "DowngradeAuditor.audit_device_old_versions"),
    ("core", "repro.core.prober", "RootStoreProber.probe_device"),
    ("core", "repro.core.passthrough", "PassthroughExperiment.run_device"),
    ("analysis.streaming", "repro.analysis.streaming", "TraceAnalysisPipeline.add_batch"),
    ("analysis.streaming", "repro.analysis.streaming", "TraceAnalysisPipeline.add"),
    ("analysis.streaming", "repro.analysis.streaming", "TraceAnalysisPipeline.finalize"),
    ("analysis.export", "repro.analysis.export", "JsonlStreamWriter.add"),
    ("analysis.export", "repro.analysis.export", "fold_stream"),
    ("analysis.export", "repro.analysis.export", "record_from_dict"),
    ("tls.codec", "repro.tls.codec", "encode_client_hello"),
    ("tls.codec", "repro.tls.codec", "decode_client_hello"),
    ("analysis.drift", "repro.analysis.drift", "measure_analysis"),
    ("analysis.drift", "repro.analysis.drift", "audit"),
    ("api", "repro.api", "execute"),
    ("telemetry.ledger", "repro.telemetry.ledger", "append_entry"),
    ("telemetry.ledger", "repro.telemetry.ledger", "load_ledger"),
    ("telemetry.ledger", "repro.telemetry.ledger", "lookup_config"),
    ("serve.http", "repro.serve.http", "read_request"),
    ("serve.http", "repro.serve.http", "send_chunk"),
)

#: The wrapped handshake entry point, whose results feed the
#: distinct-input and distinct-outcome shares.
HANDSHAKE = "tls.engine.perform_handshake"


def layer_names() -> list[str]:
    """Every wrapped function's metric prefix, in table order."""
    return [f"{layer}.{attribute}" for layer, _, attribute in LAYERS]


class _ThreadState:
    """One thread's open wrapped calls and its ``{name: [calls, seconds]}``."""

    __slots__ = ("stack", "table")

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.table: dict[str, list[float]] = {}


class LayerTracer:
    """Counts calls and self time of every function in :data:`LAYERS`.

    Call :meth:`install` once, before the program builds its objects
    (a bound method captured earlier would escape the wrapper).
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[dict[str, list[float]]] = []
        self._tables_lock = threading.Lock()
        #: Results of wrapped handshakes while collecting, else None.
        self.handshakes: list[Any] | None = None

    # -- accounting ------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._tables_lock:
                self._tables.append(state.table)
            return state

    def snapshot(self) -> dict[str, tuple[int, float]]:
        """Cumulative ``{name: (calls, self_seconds)}`` over all threads."""
        totals = {name: [0, 0.0] for name in layer_names()}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, seconds) in list(table.items()):
                totals[name][0] += calls
                totals[name][1] += seconds
        return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}

    def collect_handshakes(self) -> None:
        """Keep every handshake's ``(args, kwargs, result)`` until
        :meth:`take_handshakes`.

        Holding thousands of results makes garbage collection slower, so
        only untimed ops collect.
        """
        self.handshakes = []

    def take_handshakes(self) -> list[Any]:
        taken, self.handshakes = self.handshakes or [], None
        return taken

    # -- wrapping --------------------------------------------------------
    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        state_for = self._state
        keep_result = name == HANDSHAKE

        def record(table: dict[str, list[float]], self_seconds: float) -> None:
            entry = table.get(name)
            if entry is None:
                entry = table[name] = [0, 0.0]
            entry[0] += 1
            entry[1] += self_seconds

        if inspect.iscoroutinefunction(fn):

            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                started = perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    record(state_for().table, perf_counter() - started)

        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                state = state_for()
                stack = state.stack
                frame = [0.0]
                stack.append(frame)
                started = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - started
                    stack.pop()
                    if stack:
                        stack[-1][0] += elapsed
                    record(state.table, elapsed - frame[0])
                if keep_result and self.handshakes is not None:
                    self.handshakes.append((args, kwargs, result))
                return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Wrap every :data:`LAYERS` function and rebind every alias.

        A module-level function is replaced in its defining module and in
        every loaded ``repro`` module that imported it by name (``from x
        import f`` copies the reference); a method is replaced on its class.
        """
        for layer, module_name, attribute in LAYERS:
            module = importlib.import_module(module_name)
            name = f"{layer}.{attribute}"
            owner_name, _, function_name = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[function_name]
                setattr(owner, function_name, self._wrap(name, original))
                continue
            original = getattr(module, function_name)
            wrapped = self._wrap(name, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not loaded_name.startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)


def delta(
    after: dict[str, tuple[int, float]], before: dict[str, tuple[int, float]]
) -> dict[str, tuple[int, float]]:
    """Per-name ``after - before`` of two :meth:`LayerTracer.snapshot` results."""
    return {
        name: (calls - before[name][0], seconds - before[name][1])
        for name, (calls, seconds) in after.items()
    }


def add(total: dict[str, list[float]], part: dict[str, tuple[int, float]]) -> None:
    """Accumulate one delta into a running ``{name: [calls, seconds]}``."""
    for name, (calls, seconds) in part.items():
        entry = total.setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += seconds


def _client_key(client: Any) -> Any:
    """A client by what it brings to a handshake.

    A library client is its library and its configuration, the root store
    taken as its set of certificates (the store itself is mutable and
    unhashable).  Any other client, such as a pinning wrapper, is itself.
    """
    config = getattr(client, "config", None)
    if not dataclasses.is_dataclass(config):
        return ("object", id(client))
    values = tuple(
        frozenset(value.certificates()) if field.name == "root_store" else value
        for field in dataclasses.fields(config)
        for value in (getattr(config, field.name),)
    )
    return type(client), getattr(client, "library", None), values


def _validity_windows(result: Any) -> tuple[tuple[bool, bool], ...]:
    """Whether the handshake time is before or after each presented
    certificate's validity window: the only way that time enters a
    handshake's outcome (``pki.validation`` checks no other time)."""
    if result.response is None:
        return ()
    when = result.when
    return tuple((when < c.not_before, when > c.not_after) for c in result.response.chain)


def handshake_shares(calls: list[tuple[tuple, dict, Any]]) -> tuple[float, float]:
    """(distinct inputs, distinct outcomes) as shares of the handshakes.

    ``calls`` are :meth:`LayerTracer.take_handshakes` records.  An input
    is everything the outcome depends on: the client (library and
    configuration, root store included), the ClientHello, the hostname,
    the server's response, where the handshake time falls in the presented
    certificates' validity windows, and the application data.  An outcome
    is what a trace record keeps: the ClientHello, the terminal state, the
    negotiated version and cipher, and the client's alert.
    """
    if not calls:
        return 0.0, 0.0
    # Client objects stay alive in ``calls``, so their ids are not reused.
    client_ids: dict[int, int] = {}
    clients: dict[Any, int] = {}
    inputs = set()
    outcomes = set()
    for args, kwargs, r in calls:
        client = args[0] if args else kwargs["client"]
        index = client_ids.get(id(client))
        if index is None:
            index = client_ids[id(client)] = clients.setdefault(
                _client_key(client), len(clients)
            )
        inputs.add(
            (
                index,
                r.client_hello,
                r.hostname,
                r.response,
                _validity_windows(r),
                kwargs.get("application_data", ()),
            )
        )
        outcomes.add(
            (
                r.client_hello,
                r.state,
                r.established_version,
                r.established_cipher_code,
                r.client_alert,
            )
        )
    return len(inputs) / len(calls), len(outcomes) / len(calls)
