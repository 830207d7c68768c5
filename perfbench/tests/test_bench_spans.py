"""Span tracer: self time, per-thread stacks, hot counters, installation."""

import sys
import threading
import time
import types

import pytest

import spans


@pytest.fixture
def fake_layer():
    """A module under the ncspheres namespace plus one importing it by name."""
    layer = types.ModuleType("ncspheres.fake_layer")

    def inner(x):
        time.sleep(0.05)
        return x

    def outer(x):
        time.sleep(0.02)
        return layer.inner(x) + 1

    layer.inner, layer.outer = inner, outer
    user = types.ModuleType("ncspheres.fake_user")
    user.inner = inner
    sys.modules[layer.__name__] = layer
    sys.modules[user.__name__] = user
    yield layer, user
    del sys.modules[layer.__name__], sys.modules[user.__name__]


def test_wrappers_rebind_every_namespace_and_uninstall(fake_layer):
    layer, user = fake_layer
    original = layer.inner
    tracer = spans.Tracer()
    tracer.install_function(layer, "inner", "fake.inner")
    assert user.inner is layer.inner is not original
    tracer.uninstall()
    assert user.inner is layer.inner is original


def test_self_time_excludes_child_spans(fake_layer):
    layer, _ = fake_layer
    tracer = spans.Tracer()
    tracer.install_function(layer, "inner", "fake.inner")
    tracer.install_function(layer, "outer", "fake.outer")
    assert layer.outer(1) == 2
    tracer.uninstall()
    self_s = tracer.self_times()
    assert 0.05 <= self_s["fake.inner"] < 0.09
    assert 0.02 <= self_s["fake.outer"] < 0.045
    inner, outer = sorted(tracer.spans, key=lambda s: s[1])
    assert inner[5] == outer[0] and outer[5] is None


def test_each_thread_keeps_its_own_stack(fake_layer):
    layer, _ = fake_layer
    tracer = spans.Tracer()
    tracer.install_function(layer, "inner", "fake.inner")
    tracer.install_function(layer, "outer", "fake.outer")
    threads = [threading.Thread(target=layer.outer, args=(n,))
               for n in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer.uninstall()
    by_id = {s[0]: s for s in tracer.spans}
    inners = [s for s in tracer.spans if s[1] == "fake.inner"]
    assert len(inners) == 3
    for s in inners:
        assert by_id[s[5]][2] == s[2]  # parent ran on the same thread
    # overlapping threads must not charge each other's time as child time
    assert tracer.self_times()["fake.outer"] >= 3 * 0.02


def test_hot_wrapper_counts_calls_and_probe_hits():
    tracer = spans.Tracer()
    cache = {1}
    f = tracer.wrap("hot", lambda k: k, hot=True, probe=lambda k: k in cache)
    for k in (1, 2, 1, 3):
        f(k)
    assert tracer.hot_counts() == {"hot": (4, 2)}
    assert tracer.spans == []


def test_install_all_reaches_names_imported_into_cli():
    from ncspheres import cli, homology, rmatrix

    before = (cli.b_boundary, homology.ChainContext.pair_product)
    tracer = spans.Tracer()
    spans.install_all(tracer)
    try:
        assert cli.b_boundary is homology.b_boundary
        assert cli.b_boundary.__wrapped__ is before[0]
        assert rmatrix.check_quadratic_1.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert (cli.b_boundary, homology.ChainContext.pair_product) == before
