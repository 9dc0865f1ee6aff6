"""Kac-style direct simulation Monte Carlo for the inelastic Maxwell gas.

A finite ensemble of N velocities evolves by a pair-collision jump process:
every particle collides at unit rate, so pair events arrive at rate N/2. Time
is discretized into steps of length dt and each step draws a Poisson(N dt/2)
number of events; every event picks a uniform distinct (i, j), draws a sigma
direction uniformly on the sphere (the collision rate is constant in the
angle), and applies the sigma-parameterized collision map shared with
:mod:`maxcool.kinematics`.

Estimators recorded along the way: mean velocity, m2, m4, and the radial
empirical characteristic function (ECF) on a fixed x-grid. The ECF averages
over particles the exact sphere average of cos(x d.v) over directions d,
which is sin(x|v|)/(x|v|). Fisher information is deliberately not estimated
from particles; density-level functionals live in :mod:`maxcool.realspace`.

Determinism: every random draw comes from counter-based streams keyed by
(seed, step index), with the initial sampling on stream 0. A (seed, config)
pair therefore fixes the whole trajectory bit-exactly, and replicas with
distinct seeds are independent.

Schedule: the drawn events are queued until the next record, or until the
queue holds N/2 events, and then applied by dependency level: an event's
level is one more than that of the latest earlier event sharing a particle
with it, else 0. Each level is one vectorized collision update over distinct
particles, after every event it depends on, so the trajectory is
bit-identical to applying the events one at a time, whatever the record
schedule. `run` keeps each particle's |v|^2 and refreshes only the rows a
batch touched, so a record costs no full pass over the squared speeds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .kinematics import _check_e, _swap_velocities, block_rng, dissipation_rate, uniform_sphere

__all__ = [
    "Ensemble",
    "parse_initial_spec",
    "sample_initial",
    "run",
    "rescaled_estimates",
    "ecf",
    "save_series",
]


@dataclass
class Ensemble:
    """Empirical velocity ensemble: N particles, current time, replica seed.

    The sample mean velocity is zero at initialization (sample_initial centers
    its draws) and stays at zero up to rounding because every collision event
    conserves the pair momentum exactly. `run` mutates the ensemble in place.
    """

    velocities: np.ndarray
    t: float = 0.0
    seed: int = 0
    e: float = 1.0
    collisions_applied: int = 0
    steps_taken: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(np.asarray(self.velocities, dtype=float))
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"velocities must have shape (N, 3), got {v.shape}")
        if v.shape[0] < 2:
            raise ValueError("ensemble needs at least 2 particles")
        if not np.all(np.isfinite(v)):
            raise ValueError("velocities must be finite")
        self.velocities = v
        self.e = _check_e(self.e)
        self.t = float(self.t)
        if self.t < 0.0:
            raise ValueError("time must be nonnegative")
        self.seed = int(self.seed)
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")

    @property
    def n(self) -> int:
        return self.velocities.shape[0]

    def moments(self):
        """Return (mean velocity, m2, m4) of the current ensemble."""
        return _moments(self.velocities, _squares(self.velocities))

    def copy(self) -> "Ensemble":
        return Ensemble(self.velocities.copy(), t=self.t, seed=self.seed, e=self.e,
                        collisions_applied=self.collisions_applied,
                        steps_taken=self.steps_taken)


def _squares(v: np.ndarray) -> np.ndarray:
    # |v|^2 row by row; a subset of rows gets the same bits as the whole
    return np.einsum("ij,ij->i", v, v)


def _moments(v: np.ndarray, sq: np.ndarray):
    # sq is _squares(v); the row-by-row sum of mean(axis=0), without its
    # reduction machinery
    return np.einsum("ij->j", v) / v.shape[0], float(sq.mean()), float((sq * sq).mean())


def parse_initial_spec(spec: str) -> dict:
    """Parse an initial-data spec string to a dict with a "kind" key.

    The forms are "maxwellian[:theta]" (theta defaults to 1) and
    "mixture:p,theta1,theta2" ("bimax" is an alias for "mixture"), giving
    {"kind": "maxwellian", "theta": theta} or
    {"kind": "mixture", "p": p, "theta1": theta1, "theta2": theta2}.
    """
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    vals = [float(tok) for tok in rest.split(",") if tok.strip()] if rest else []
    if name == "maxwellian":
        if len(vals) > 1:
            raise ValueError("maxwellian spec takes one parameter: theta")
        theta = vals[0] if vals else 1.0
        if theta <= 0.0:
            raise ValueError(f"theta must be positive, got {theta}")
        return {"kind": "maxwellian", "theta": theta}
    if name in ("mixture", "bimax"):
        if len(vals) != 3:
            raise ValueError("mixture spec needs three parameters: p,theta1,theta2")
        p, theta1, theta2 = vals
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"mixture weight p must lie in [0, 1], got {p}")
        if theta1 <= 0.0 or theta2 <= 0.0:
            raise ValueError("mixture temperatures must be positive")
        return {"kind": "mixture", "p": p, "theta1": theta1, "theta2": theta2}
    raise ValueError(f"unknown initial spec kind {name!r}")


def sample_initial(spec: str, N: int, seed: int, e: float = 1.0) -> Ensemble:
    """Draw N i.i.d. velocities from an initial spec, mean-center, return an Ensemble.

    spec: "maxwellian[:theta]" for an isotropic Gaussian, or
    "mixture:p,theta1,theta2" for a two-temperature Gaussian mixture (see
    parse_initial_spec).
    Identical (spec, N, seed) give bit-identical ensembles. The empirical m2
    is checked against its target with a 5/sqrt(N) band; a miss only warns,
    since it is a legitimate sampling fluctuation and not a rare one. For a
    unit Maxwellian the standard deviation of m2 is sqrt(6/N), so the band is
    2.04 standard deviations and a miss is expected for about 4 % of seeds
    (10 of 200 seeds at N = 1500).
    """
    spec = parse_initial_spec(spec)
    N = int(N)
    if N < 2:
        raise ValueError("N must be at least 2")
    rng = block_rng(int(seed), 0)
    draws = rng.standard_normal((N, 3))
    if spec["kind"] == "maxwellian":
        vel = draws * np.sqrt(spec["theta"])
        target_m2 = 3.0 * spec["theta"]
    else:
        cold = rng.random(N) < spec["p"]
        scale = np.where(cold, np.sqrt(spec["theta1"]), np.sqrt(spec["theta2"]))
        vel = draws * scale[:, None]
        target_m2 = 3.0 * (spec["p"] * spec["theta1"] + (1.0 - spec["p"]) * spec["theta2"])
    vel -= vel.mean(axis=0)
    ens = Ensemble(vel, t=0.0, seed=int(seed), e=e)
    _, m2, _ = ens.moments()
    band = 5.0 / np.sqrt(N)
    if abs(m2 - target_m2) > band:
        warnings.warn(
            f"empirical m2 = {m2:.6g} misses target {target_m2:.6g} "
            f"by more than 5/sqrt(N) = {band:.3g}",
            stacklevel=2,
        )
    return ens


def _ecf_arrays(sq: np.ndarray, x_grid: np.ndarray):
    # sq holds each particle's |v|^2; its kernel sin(x|v|)/(x|v|) is its exact
    # direction average, so the kernels are an i.i.d. sample for the stderr
    speed = np.sqrt(sq)
    n = sq.shape[0]
    est = np.empty(x_grid.size)
    err = np.empty(x_grid.size)
    for jx, x in enumerate(x_grid):
        arg = x * speed
        per_particle = np.ones(n)
        np.divide(np.sin(arg), arg, out=per_particle, where=arg != 0.0)
        # shifted by one kernel value, so a constant sample is exact with
        # zero error (x = 0, or every particle at one speed)
        dev = per_particle - per_particle[0]
        est[jx] = per_particle[0] + dev.mean()
        err[jx] = dev.std(ddof=1) / np.sqrt(n)
    return est, err


def _check_x_grid(x_grid) -> np.ndarray:
    x = np.asarray(x_grid, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("x_grid must be a nonempty 1-D array")
    if not np.all(np.isfinite(x)) or np.any(x < 0.0):
        raise ValueError("x_grid values must be finite and nonnegative")
    return x


def ecf(ens: Ensemble, x_grid) -> tuple:
    """Radial empirical characteristic function on x_grid.

    Returns (values, stderr): values[j] is (1/N) sum_i sin(x_j |v_i|)/(x_j |v_i|),
    the sphere average over directions d of (1/N) sum_i cos(x_j d.v_i);
    stderr[j] is the standard error of those i.i.d. per-particle kernels.
    x = 0 gives exactly 1 with zero error.
    """
    x = _check_x_grid(x_grid)
    return _ecf_arrays(_squares(ens.velocities), x)


def _levels(idx: np.ndarray) -> np.ndarray:
    """Dependency level of each event of an (m, 2) index array, in order.

    An event sharing no particle with an earlier one is at level 0; any other
    is one above the latest earlier event it shares a particle with. One
    argsort of the particle slots links each slot to the previous event on
    its particle; the levels of the events that have one then settle by
    vectorized relaxation, one pass per level and one that changes nothing.
    """
    m = idx.shape[0]
    flat = idx.ravel()
    # particle-major, slot order within a particle: unique keys, so any sort
    # gives the stable order
    order = np.argsort(flat * (2 * m) + np.arange(2 * m))
    sv = flat[order]
    follows = sv[1:] == sv[:-1]
    # the previous event on each slot's particle; m stands for none, level -1
    prev = np.full(2 * m, m)
    prev[order[1:][follows]] = order[:-1][follows] // 2
    waiting = np.flatnonzero(np.minimum(prev[0::2], prev[1::2]) < m)
    prev_i, prev_j = prev[2 * waiting], prev[2 * waiting + 1]
    level = np.zeros(m + 1, dtype=np.intp)
    level[m] = -1
    while waiting.size:
        new = np.maximum(level[prev_i], level[prev_j]) + 1
        if np.array_equal(new, level[waiting]):
            break
        level[waiting] = new
    return level[:m]


def _apply_events(vel: np.ndarray, idx: np.ndarray, sigma: np.ndarray,
                  e: float) -> int:
    """Apply the events in order, one vectorized update per dependency level.

    Event k collides particles idx[k] at post-collisional direction sigma[k].
    The events of one level (see `_levels`) touch pairwise-distinct particles,
    and each follows every earlier event it shares a particle with, so the
    level-by-level update is bit-identical to applying the events one at a
    time. Returns the number of levels.
    """
    level = _levels(idx)
    order = np.argsort(level, kind="stable")
    idx = idx.take(order, axis=0)
    sigma = sigma.take(order, axis=0)
    bounds = np.cumsum(np.bincount(level))
    start = 0
    for stop in bounds:
        i, j = idx[start:stop, 0], idx[start:stop, 1]
        vp, wp = _swap_velocities(vel.take(i, axis=0), vel.take(j, axis=0),
                                  sigma[start:stop], e)
        vel[i] = vp
        vel[j] = wp
        start = stop
    return bounds.size


def run(ens: Ensemble, t_max: float, dt: float, x_grid=None,
        record_every: int = None) -> dict:
    """Evolve the ensemble in place for a horizon t_max; return a time series.

    Each step of length dt draws Poisson(N dt/2) collision events (unit
    per-particle collision rate), each with a uniformly drawn sigma: the
    collision rate is the constant Maxwell rate. Estimators are recorded every
    record_every steps (default: about 200 rows), always including the initial
    and final states; the radial ECF of `ecf` is recorded only when x_grid
    is given.

    The draws of step s (counted from 1 over the ensemble's life, so across
    calls) come from `block_rng(seed, 1 + s)` in this order: the event count
    k ~ Poisson(N dt/2), then i = integers(0, N, k), then
    j = (i + integers(1, N, k)) % N, then sigma = uniform_sphere(rng, k). The
    events are applied in step order, and within a step in draw order. They
    are queued until the next record step, or until the queue holds N/2
    events, and then applied by `_apply_events`, one vectorized update per
    dependency level. The result is bit-identical to applying the events one
    at a time, so it does not depend on record_every or on how a horizon is
    split into calls.

    Returns {"t", "m1", "m2", "m4", "n_particles", "e", "batches"} plus
    {"x_grid", "ecf", "ecf_stderr"} when x_grid is given; "batches" counts
    the vectorized updates.
    """
    if dt <= 0.0 or dt > 0.1:
        raise ValueError(f"dt must lie in (0, 0.1], got {dt}")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    n_steps = max(int(round(t_max / dt)), 1)
    if abs(n_steps * dt - t_max) > 1e-9 * max(t_max, 1.0):
        warnings.warn(
            f"snapping horizon to {n_steps} steps of dt={dt} "
            f"(covers {n_steps * dt:.6g}, requested {t_max:.6g})",
            stacklevel=2,
        )
    if record_every is None:
        record_every = max(n_steps // 200, 1)
    record_every = int(record_every)
    if record_every < 1:
        raise ValueError("record_every must be a positive integer")
    x = _check_x_grid(x_grid) if x_grid is not None else None

    vel = ens.velocities
    n = ens.n
    t0 = ens.t
    sq = _squares(vel)  # kept current for the rows each batch touches
    rows = []
    queue = []
    queued = 0
    batches = 0

    def _record(step: int) -> None:
        row = [t0 + step * dt, *_moments(vel, sq)]
        if x is not None:
            row.extend(_ecf_arrays(sq, x))
        rows.append(row)

    _record(0)
    for step in range(1, n_steps + 1):
        rng = block_rng(ens.seed, 1 + ens.steps_taken + step)
        n_events = int(rng.poisson(0.5 * n * dt))
        if n_events:
            i = rng.integers(0, n, n_events)
            j = (i + rng.integers(1, n, n_events)) % n
            queue.append((np.column_stack([i, j]), uniform_sphere(rng, n_events)))
            queued += n_events
            ens.collisions_applied += n_events
        record = step % record_every == 0 or step == n_steps
        if queue and (record or 2 * queued >= n):
            idx = np.concatenate([q[0] for q in queue])
            sigma = np.concatenate([q[1] for q in queue])
            batches += _apply_events(vel, idx, sigma, ens.e)
            touched = idx.ravel()
            sq[touched] = _squares(vel.take(touched, axis=0))
            queue = []
            queued = 0
        if record:
            _record(step)

    ens.steps_taken += n_steps
    ens.t = t0 + n_steps * dt
    series = {
        "t": np.array([r[0] for r in rows]),
        "m1": np.array([r[1] for r in rows]),
        "m2": np.array([r[2] for r in rows]),
        "m4": np.array([r[3] for r in rows]),
        "n_particles": n,
        "e": ens.e,
        "batches": batches,
    }
    if x is not None:
        series["x_grid"] = x.copy()
        series["ecf"] = np.array([r[4] for r in rows])
        series["ecf_stderr"] = np.array([r[5] for r in rows])
    return series


def rescaled_estimates(series: dict, e: float) -> dict:
    """Map a recorded series to the rescaled (constant-temperature) frame.

    Moments pick up factors e^{kEt}: m1 e^{Et}, m2 e^{2Et}, m4 e^{4Et}. The
    rescaled characteristic function at abscissa x equals the unscaled one at
    e^{Et} x, so the recorded ECF values are reused with per-row abscissae
    x_grid e^{-Et}, returned as "x_rescaled".
    """
    big_e = dissipation_rate(e)
    t = np.asarray(series["t"], dtype=float)
    fac = np.exp(big_e * t)
    out = {
        "t": t.copy(),
        "m1": np.asarray(series["m1"], dtype=float) * fac[:, None],
        "m2": np.asarray(series["m2"], dtype=float) * fac**2,
        "m4": np.asarray(series["m4"], dtype=float) * fac**4,
    }
    for key in ("n_particles", "e"):
        if key in series:
            out[key] = series[key]
    if "ecf" in series:
        x = np.asarray(series["x_grid"], dtype=float)
        out["x_grid"] = x.copy()
        out["ecf"] = np.asarray(series["ecf"], dtype=float).copy()
        out["ecf_stderr"] = np.asarray(series["ecf_stderr"], dtype=float).copy()
        out["x_rescaled"] = x[None, :] / fac[:, None]
    return out


def save_series(path, series: dict) -> None:
    """Write a run series as CSV: t, m1x, m1y, m1z, m2, m4, ecf_x0, ...

    The header names the ECF x-grid. Standard errors are in-memory estimates
    and are not part of the interchange format.
    """
    has_ecf = "ecf" in series
    x = np.asarray(series["x_grid"], dtype=float) if has_ecf else np.empty(0)
    cols = ["t", "m1x", "m1y", "m1z", "m2", "m4"]
    cols += [f"ecf_x{i}" for i in range(x.size)]
    t = np.asarray(series["t"], dtype=float)
    body = [t[:, None], np.asarray(series["m1"], dtype=float),
            np.asarray(series["m2"], dtype=float)[:, None],
            np.asarray(series["m4"], dtype=float)[:, None]]
    if has_ecf:
        body.append(np.asarray(series["ecf"], dtype=float))
    table = np.hstack(body)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# maxcool-dsmc v1 x_grid=" + ",".join(f"{v:.17g}" for v in x) + "\n")
        fh.write(",".join(cols) + "\n")
        for row in table:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

