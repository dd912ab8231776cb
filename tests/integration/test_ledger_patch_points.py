"""Tier-1 guard for the perf ledger's outside-in patch points.

``benchmarks/ledger`` traces the program without editing it: its recorder
patches the methods and functions named in ``spans.py`` by looking them
up in the owning class's ``__dict__`` (or the defining module), and its
verifier rebuilds an engine through ``build_engine``.  A refactor that
moves or inherits one of those names breaks the traced round only when
the benchmark runs; this test makes it fail ``pytest`` instead.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("ledger_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_method_layer_target_is_defined_on_its_class():
    for layer, targets in _load_spans().METHOD_LAYERS.items():
        for module_name, class_name, methods in targets:
            cls = getattr(importlib.import_module(module_name), class_name)
            for name in methods:
                assert name in cls.__dict__, f"{layer}: {module_name}.{class_name}.{name}"


def test_every_function_layer_target_is_a_module_attribute():
    for layer, (module_name, functions) in _load_spans().FUNCTION_LAYERS.items():
        module = importlib.import_module(module_name)
        for name in functions:
            assert callable(getattr(module, name, None)), f"{layer}: {module_name}.{name}"


def test_verifier_entry_point_exists():
    from repro.conformance.generators import TrialGenerator
    from repro.conformance.runner import build_engine

    trial = TrialGenerator(1).trial(0)
    engine = build_engine(trial)
    for segment in trial.segments:
        engine.evaluate_segment(trial.consumer, segment)
