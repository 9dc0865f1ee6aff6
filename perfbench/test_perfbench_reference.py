"""Quick checks of the reference kernel's pacing on a stand-in module."""

import types
from time import process_time as clock

from reference import Reference


def _busy(seconds: float) -> None:
    t0 = clock()
    while clock() - t0 < seconds:
        pass


def test_ticks_run_one_block_per_period_and_restore():
    mod = types.ModuleType("fake")
    mod.work = _busy
    original = mod.work
    ref = Reference(table_mb=(0.5,), every=0.02, reps=1)
    ref.wrap(mod, "work")
    ref.reset()
    mod.work(0.005)
    assert ref.blocks == 0  # less than one period of work
    mod.work(0.05)  # more than two periods, less than three, blocks aside
    assert 2 <= ref.blocks <= 3
    ref.restore()
    assert mod.work is original
    assert ref.units(1.0) == ref.blocks / ref.spent


def test_reference_is_the_same_on_every_construction():
    a, b = Reference(table_mb=(0.25, 0.5)), Reference(table_mb=(0.25, 0.5))
    assert a.nbytes == b.nbytes
    for (ta, ia), (tb, ib) in zip(a.tables, b.tables):
        assert (ta == tb).all() and (ia == ib).all()
