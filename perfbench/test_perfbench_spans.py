"""Quick checks of the span tracer on a stand-in module."""

import types
import warnings

from spans import SpanStats, Tracer


def _module():
    mod = types.ModuleType("fake")

    def leaf():
        warnings.warn("moment(4) stencil widened: roundoff near value scale")
        return 1

    def outer():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return mod.leaf() + mod.leaf()

    mod.leaf, mod.outer = leaf, outer
    return mod


def test_spans_nest_and_warnings_are_counted_then_reissued():
    mod = _module()
    original = mod.leaf
    tracer = Tracer()
    tracer.wrap(mod, "outer")
    tracer.wrap(mod, "leaf", count_warnings=True)
    tracer.phase("round-0")
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert mod.outer() == 2
    tracer.restore()
    assert mod.leaf is original
    # counted inside the wrapper, swallowed by the caller's own "ignore" filter
    assert tracer.phase_warnings["round-0"]["stencil_widening"] == 2
    assert seen == []
    stats = SpanStats([tracer.phases["round-0"]])
    assert stats.calls["fake.outer"] == 1 and stats.calls["fake.leaf"] == 2
    assert stats.nested[("fake.outer", "fake.leaf")] == 2
    outer = tracer.phases["round-0"][0]
    leaves = sum(s[2] - s[1] for s in tracer.phases["round-0"][1:])
    assert abs(stats.self_time["fake.outer"] - (outer[2] - outer[1] - leaves)) < 1e-12
