"""Span self times add up, and a missing layer is reported, not fatal."""

import time
import types

import tracing


def toy_module():
    mod = types.SimpleNamespace()

    def leaf():
        time.sleep(0.002)
        return 3

    def middle():
        time.sleep(0.001)
        return mod.leaf() + mod.leaf()

    mod.leaf, mod.middle = leaf, middle
    return mod


def test_self_times_sum_to_the_operation_time():
    mod = toy_module()
    tr = tracing.Tracer()
    tr.wrap(mod, "leaf", "leaf", "leaf.calls")
    tr.wrap(mod, "middle", "middle")
    tr.open("bench")
    assert mod.middle() == 6
    total = tr.close()
    assert abs(sum(tr.self_time.values()) - total) < 1e-9
    assert tr.self_time["leaf"] >= 0.004
    assert tr.counts["leaf.calls"] == 2
    names = [s[0] for s in tr.spans]
    parents = [s[3] for s in tr.spans]
    assert names == ["bench", "middle", "leaf", "leaf"]
    assert parents == [-1, 0, 1, 1]


def test_uninstall_restores_the_original_functions():
    mod = toy_module()
    original = mod.leaf
    tr = tracing.Tracer()
    tr.wrap(mod, "leaf", None, "leaf.calls")
    assert mod.leaf is not original
    tr.uninstall()
    assert mod.leaf is original


def test_renamed_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + [
        ("pourplan.oracle", "_no_such_stage", "oracle.gone", None),
        ("pourplan.no_such_module", "f", "gone", None)])
    tr = tracing.Tracer()
    tr.install()
    try:
        assert tr.absent == ["pourplan.oracle._no_such_stage",
                             "pourplan.no_such_module.f"]
    finally:
        tr.uninstall()
