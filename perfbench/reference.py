"""A fixed reference kernel, run in short blocks between pieces of a round.

On a shared host the speed of the same work drifts over minutes by up to
1.5x with the load that other guests put on the caches and memory, and a
round of half a minute cannot average that drift away. The reference kernel
runs in the same process, in small blocks spread evenly through the round,
so it meets the same load as the round does. The end-to-end figure is the
round's own CPU time divided by the mean CPU time of one block: the round's
length in reference blocks, which the host's drift moves less than it moves
the round's CPU time (README, "Clock").

A block gathers at random from tables of fixed sizes and reduces the result,
so that it depends on the cache and memory bandwidth the way the program's
interpolation plans and particle arrays do. Each workload chooses table
sizes near its own working set. The kernel uses numpy only, never maxcool, so
a change to the program cannot change the reference.
"""

from __future__ import annotations

import functools
from time import process_time as clock

import numpy as np

GATHER = 250_000  # indices per table per block, at most the table's length
MB = 1 << 20


class Reference:
    """Blocks of the kernel, one for every `every` s of the program's CPU.

    `tick()` is called at pieces of the work; it catches up on the blocks
    due for the program's CPU time since `reset()`, so the kernel takes the
    same share of every stretch of the round however the pieces fall.
    """

    def __init__(self, table_mb=(4,), every: float = 0.1, reps: int = 2) -> None:
        rng = np.random.default_rng(0)  # fixed: the reference is the same on every run
        self.tables = []
        for size in table_mb:
            n = int(size * MB) // 8
            self.tables.append((rng.standard_normal(n), rng.integers(0, n, min(GATHER, n))))
        self.nbytes = sum(t.nbytes + i.nbytes for t, i in self.tables)
        self.every = every
        self.reps = reps
        self._saved: list = []
        self.reset()
        self.block()  # first touch of the tables is not a block
        self.reset()

    def block(self) -> None:
        t0 = clock()
        for _ in range(self.reps):
            for table, idx in self.tables:
                float(np.dot(table[idx], table[:idx.size]))
        self.spent += clock() - t0
        self.blocks += 1

    def reset(self) -> None:
        self.spent = 0.0
        self.blocks = 0
        self._start = clock()

    def tick(self) -> None:
        program = clock() - self._start - self.spent
        for _ in range(int(program / self.every) - self.blocks):
            self.block()

    def units(self, cpu: float) -> float:
        """`cpu` s of the program's CPU time in mean blocks of this round."""
        return cpu * self.blocks / self.spent

    def wrap(self, module, attr: str) -> None:
        """Tick after every call of module.attr."""
        fn = getattr(module, attr)
        reference = self

        @functools.wraps(fn)
        def paced(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                reference.tick()

        setattr(module, attr, paced)
        self._saved.append((module, attr, fn))

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
