"""Outside-in span recorders for the traced round.

The program is not edited: :class:`Recorder` patches the public entry
points of each layer (see :data:`METHOD_LAYERS`, :data:`FUNCTION_LAYERS`
and the ``Router.add`` hook), keeps ``(layer, parent, root op, start,
end)`` spans in memory while a root op is open, and puts every original
attribute back in :meth:`Recorder.uninstall`.  :func:`fold` turns the
spans into per-layer self time: a span's duration minus the time its
child spans cover.

Recorders must be installed *before* the traced system is built, because
router gates and handlers are bound at construction.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager

#: layer -> [(module, class, method names)], the rows of the README table.
METHOD_LAYERS = {
    "core.consumer": [
        ("repro.core.consumer", "Consumer", ("fetch", "fetch_aggregate", "search", "resolve")),
    ],
    "core.contributor": [
        ("repro.core.contributor", "Contributor", ("add_rule", "remove_rule")),
    ],
    "collection.phone": [
        ("repro.collection.phone", "SmartphoneAgent", ("collect", "upload")),
    ],
    "context.annotate": [("repro.context.annotate", "ContextAnnotator", ("infer_window",))],
    "net.client": [("repro.net.client", "HttpClient", ("post",))],
    "net.transport": [("repro.net.transport", "Network", ("request",))],
    "net.http": [("repro.net.http", "Router", ("dispatch",))],
    "net.overload": [("repro.net.overload", "AdmissionController", ("gate", "gate_done"))],
    "auth.apikeys": [("repro.auth.apikeys", "ApiKeyRegistry", ("authenticate",))],
    "datastore.cache": [("repro.datastore.cache", "ReleaseCache", ("get", "put", "contains"))],
    "datastore.segment_store.query": [
        ("repro.datastore.segment_store", "SegmentStore", ("query",)),
    ],
    "datastore.segment_store.ingest": [
        ("repro.datastore.segment_store", "SegmentStore", ("add_packet", "add_segment", "flush")),
    ],
    "datastore.wavesegment": [
        ("repro.datastore.wavesegment", "WaveSegment", ("to_json", "from_json")),
        ("repro.rules.engine", "ReleasedSegment", ("to_json", "from_json")),
        ("repro.sensors.packets", "SensorPacket", ("to_json", "from_json")),
    ],
    "rules.engine.build": [("repro.rules.engine", "RuleEngine", ("__init__",))],
    "rules.engine.evaluate": [("repro.rules.engine", "RuleEngine", ("evaluate",))],
    "rules.compiler": [
        ("repro.rules.compiler", "CompiledRuleCache", ("artifact_for",)),
        ("repro.rules.compiler", "CompiledRuleSet", ("evaluate_batch",)),
    ],
    "rules.rulestore": [("repro.rules.rulestore", "RuleStore", ("add", "remove", "replace_all"))],
    "server.audit": [("repro.server.audit", "AuditLog", ("record_access",))],
    "storage.wal": [("repro.storage.wal", "WriteAheadLog", ("append", "commit"))],
    "storage.replication": [
        ("repro.storage.replication", "WalShipper", ("after_write", "pump")),
        ("repro.storage.replication", "ReplicaApplier", ("apply_batch",)),
    ],
    "broker.sync": [("repro.broker.sync", "SyncManager", ("pull_all", "apply_profile"))],
    "broker.search": [("repro.broker.search", "ContributorSearch", ("search", "search_sharded"))],
    "broker.directory": [("repro.broker.directory", "ShardDirectory", ("place", "route"))],
    "obs": [
        ("repro.obs.tracing", "Tracer", ("start_span", "end_span")),
        ("repro.obs.costs", "QueryCostLog", ("start", "finish")),
        ("repro.obs.slo", "SloTracker", ("release_observed",)),
    ],
}

#: layer -> (defining module, function names).  Module-level functions are
#: patched in every ``repro`` module namespace that holds a reference,
#: because ``from m import f`` copies the binding at import time.
FUNCTION_LAYERS = {
    "util.jsonutil": ("repro.util.jsonutil", ("canonical_dumps",)),
    "datastore.codec": ("repro.datastore.codec", ("encode_values", "decode_values")),
    "datastore.aggregate": (
        "repro.datastore.aggregate",
        ("aggregate_released", "aggregate_segments"),
    ),
}

#: Handlers registered through ``Router.add`` are named by owning service.
HANDLER_LAYERS = {
    "repro.server.datastore_service": "server.datastore_service",
    "repro.server.broker_service": "server.broker_service",
}

LAYERS = tuple(sorted({*METHOD_LAYERS, *FUNCTION_LAYERS, *HANDLER_LAYERS.values()}))

#: The layer name root-op spans carry.
ROOT = "op"


class Recorder:
    """Patches layer entry points and records spans under open root ops."""

    def __init__(self) -> None:
        self.spans: list = []  # [layer, parent index, root op id, start, end]
        self._stack: list = []
        self._thread = threading.get_ident()
        self._undo: list = []  # (owner, attribute, original) in patch order
        self._functions: list = []  # (original, wrapper) of module functions

    # -- recording ------------------------------------------------------

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        thread, get_ident = self._thread, threading.get_ident

        def recorder(*args, **kwargs):
            # Outside a root op (setup, verification) and on the broker's
            # search worker threads the call passes straight through.
            if not stack or get_ident() != thread:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [layer, stack[-1], spans[stack[0]][2], clock(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        recorder.ledger_layer = layer
        return recorder

    @contextmanager
    def root(self, op_id: int):
        """Open the root span of one op; layer spans nest under it."""
        index = len(self.spans)
        span = [ROOT, -1, op_id, time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        import importlib

        for layer, targets in METHOD_LAYERS.items():
            for module, cls_name, names in targets:
                cls = getattr(importlib.import_module(module), cls_name)
                for name in names:
                    self._patch_method(layer, cls, name)
        for layer, (module, names) in FUNCTION_LAYERS.items():
            for name in names:
                original = getattr(importlib.import_module(module), name)
                wrapper = self._wrap(layer, original)
                self._functions.append((original, wrapper))
                _rebind(original, wrapper)
        self._patch_router_add()

    def _patch_method(self, layer: str, cls, name: str) -> None:
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            wrapper = classmethod(self._wrap(layer, original.__func__))
        elif isinstance(original, staticmethod):
            wrapper = staticmethod(self._wrap(layer, original.__func__))
        else:
            wrapper = self._wrap(layer, original)
        self._undo.append((cls, name, original))
        setattr(cls, name, wrapper)

    def _patch_router_add(self) -> None:
        from repro.net.http import Router

        original = Router.add
        wrap = self._wrap

        def add(router, method, pattern, handler):
            owner = getattr(handler, "__self__", None)
            layer = HANDLER_LAYERS.get(type(owner).__module__)
            if layer is not None:
                handler = wrap(layer, handler)
            return original(router, method, pattern, handler)

        add.ledger_layer = "net.http"
        self._undo.append((Router, "add", original))
        Router.add = add

    def uninstall(self) -> None:
        """Put every original back, wherever a wrapper ended up."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        while self._functions:
            original, wrapper = self._functions.pop()
            _rebind(wrapper, original)


def _rebind(old, new) -> None:
    """Replace ``old`` by ``new`` in every loaded ``repro`` module namespace."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def patched_attributes() -> list:
    """Every patch site that still holds a recorder (must be empty after
    :meth:`Recorder.uninstall`)."""
    import importlib

    from repro.net.http import Router

    sites = [(Router, "add")]
    for targets in METHOD_LAYERS.values():
        for module, cls_name, names in targets:
            cls = getattr(importlib.import_module(module), cls_name)
            sites += [(cls, name) for name in names]
    function_names = {name for _, names in FUNCTION_LAYERS.values() for name in names}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            sites += [(module, attr) for attr in function_names & set(vars(module))]
    found = []
    for owner, name in sites:
        value = vars(owner)[name]
        if hasattr(getattr(value, "__func__", value), "ledger_layer"):
            found.append(f"{getattr(owner, '__qualname__', owner.__name__)}.{name}")
    return found


def fold(spans: list, scales=None) -> dict:
    """Per-layer self time and call counts from a span list.

    ``scales[root op id]``, if given, multiplies every duration under that
    root op (the harness's machine-speed calibration).

    Returns ``{"layers": {layer: (self_seconds, calls)}, "root_seconds",
    "unattributed_seconds", "roots"}``.  Spans are well nested (one thread,
    one stack), so a span's children never overlap each other and self
    time is simply duration minus the children's durations.  The root
    spans' own self time — op time no recorder covers — is reported as
    unattributed, so layer self times plus unattributed time equal the
    root-op time exactly.
    """
    child_time = [0.0] * len(spans)
    for layer, parent, _root, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers: dict = {}
    root_seconds = unattributed = 0.0
    roots = 0
    for index, (layer, _parent, root, start, end) in enumerate(spans):
        scale = 1.0 if scales is None else scales[root]
        self_time = ((end - start) - child_time[index]) * scale
        if layer == ROOT:
            roots += 1
            root_seconds += (end - start) * scale
            unattributed += self_time
            continue
        seconds, calls = layers.get(layer, (0.0, 0))
        layers[layer] = (seconds + self_time, calls + 1)
    return {
        "layers": layers,
        "root_seconds": root_seconds,
        "unattributed_seconds": unattributed,
        "roots": roots,
    }
