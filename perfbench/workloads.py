"""The benchmark's workloads: generated inputs, one round of operations, checks.

A round is a fixed list of operations. An operation is one steady solve, one
evolve, one DSMC run chunk, one ECF record, one Monte Carlo identity or one
Fisher gain check; it fails if it raises, if a steady solve does not
converge, or if one of its checks fails. Every check compares against
`refs` (closed forms that import nothing from maxcool) or against a property
the method must have, never against stored output. Allowances for sampled
quantities are five standard errors, which a fresh seed misses with
probability below 1e-6 per check.
"""

from __future__ import annotations

import math
import sys
import traceback
import warnings
from collections import Counter
from time import process_time as clock

import numpy as np

from maxcool import dsmc, harness, kinematics as kin, realspace as rs, spectral as sp

import refs
from spans import warning_kind

SIGMAS = 5.0

# Every public function a workload reaches, as (module, attribute); the traced
# run swaps each for a timing wrapper.
TRACED = (
    (sp, "step"), (sp, "evolve"), (sp, "steady_profile"), (sp, "steady_residual"),
    (sp, "gain_fourier"), (sp, "evaluate"), (sp, "moment"), (sp, "sobolev_norm"),
    (sp, "sup_weighted"), (sp, "d2_distance"),
    (rs, "reconstruct"), (rs, "fisher_information"), (rs, "fisher_gain_check"),
    (dsmc, "sample_initial"), (dsmc, "run"), (dsmc, "ecf"),
    (kin, "mc_change_of_variables"), (harness, "sweep_epsilon"),
)
COUNT_WARNINGS = {"step", "moment"}  # dt-halving retries, stencil widenings
# The untraced run ticks the reference kernel after each call of these.
PACED = ((sp, "step"), (rs, "reconstruct"), (dsmc, "run"), (dsmc, "ecf"),
         (kin, "mc_change_of_variables"))


def step_span_name(args, kwargs) -> str:
    config = args[2] if len(args) > 2 else kwargs["config"]
    return "spectral.step." + ("rescaled" if config.frame == "rescaled-g" else "unscaled")


class Ops:
    """Attempted and failed operations, with warnings counted by kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.warnings: Counter = Counter()
        self.problems: list[str] = []

    def call(self, fn, *args, **kwargs):
        """Return (fn(...), None), or (None, reason) if it raised."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return fn(*args, **kwargs), None
            except Exception as exc:  # a raising operation is a failed one
                traceback.print_exc(file=sys.stderr)
                return None, f"raised {exc!r}"
            finally:
                for w in caught:
                    self.warnings[warning_kind(w)] += 1

    def run(self, label: str, fn, *args) -> None:
        """One operation: fn returns the list of its failed checks."""
        problems, err = self.call(fn, *args)
        self.outcome(label, [err] if err else problems)

    def outcome(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(problems))


def _within(problems: list, what: str, dev, allowed) -> None:
    dev = np.asarray(dev, dtype=float)
    if not np.all(dev <= allowed):  # NaN fails too
        worst = int(np.argmax(np.where(np.isnan(dev), np.inf, dev - allowed)))
        problems.append(f"{what}: {dev.flat[worst]:.3g} exceeds "
                        f"{np.broadcast_to(allowed, dev.shape).flat[worst]:.3g}")


def _gain_timing(grid, q: int, repeats: int) -> dict:
    # one gain apply at (n, q), and the first apply on fresh (grid, e, q) keys
    phi = sp.CharacteristicProfile.maxwellian(grid)
    sp.gain_fourier(phi, 0.95, q)
    apply = []
    for _ in range(repeats):
        t0 = clock()
        sp.gain_fourier(phi, 0.95, q)
        apply.append(clock() - t0)
    build = []
    for k in range(1, 4):
        t0 = clock()
        sp.gain_fourier(phi, 0.95 - 1e-6 * k, q)
        build.append(clock() - t0)
    return {"spectral.gain_fourier.ms": 1e3 * float(np.median(apply)),
            "spectral.plan_build.ms": 1e3 * float(np.median(build))}


class Steady:
    """`harness.sweep_epsilon` on the `sweep-eps` grid, solver and tolerance,
    over its two smallest eps.

    Inputs are fixed; the seed changes nothing.
    """

    EPS = (0.02, 0.01)
    REFERENCE = {"table_mb": (4,), "reps": 2}  # a plan of 3.7 MB
    TOL = 1e-6
    M2_TOL = 1e-5    # absolute, against m2 = 3 held by the rescaled flow
    M4_RTOL = 2e-4   # half the smallest gap between m4* and 15 on EPS (4.0e-4)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.notes: dict = {}

    def setup(self) -> None:
        self.grid = sp.RadialGrid(1024, 30.0)
        self.config = sp.SolverConfig(dt=0.01, t_max=250.0, quad_order=32,
                                      frame="rescaled-g")
        # the first gain plan and both drift plans (burn-in and fine dt) per e
        burn = sp.SolverConfig(dt=0.05, t_max=250.0, quad_order=32, frame="rescaled-g")
        phi = sp.CharacteristicProfile.maxwellian(self.grid)
        for eps in self.EPS:
            for cfg in (burn, self.config):
                sp.step(phi, 1.0 - 2.0 * eps, cfg)

    def round(self, ops: Ops) -> None:
        # the sweep returns only its table; keep the profiles for the checks
        solved: list = []
        inner = sp.steady_profile

        def capture(*args, **kwargs):
            phi = inner(*args, **kwargs)
            solved.append(phi)
            return phi

        sp.steady_profile = capture
        try:
            table, err = ops.call(harness.sweep_epsilon, self.EPS, config=self.config,
                                  grid=self.grid, tol=self.TOL, raise_on_failure=False)
        finally:
            sp.steady_profile = inner
        if table is not None:
            self.notes["c_stable"] = table["c_stable"]
        prev = None
        for k, eps in enumerate(self.EPS):
            label = f"solve eps={eps:g}"
            if err:
                ops.outcome(label, [err])
                continue
            problems, cerr = ops.call(self._check, eps, solved[k] if k < len(solved) else None,
                                      table, prev)
            ops.outcome(label, [cerr] if cerr else problems)
            prev = next((r for r in table["rows"] if r["eps"] == eps), None)

    def _check(self, eps, phi, table, prev) -> list[str]:
        e = 1.0 - 2.0 * eps
        row = next((r for r in table["rows"] if r["eps"] == eps), None)
        if phi is None or row is None or not phi.meta.get("converged"):
            return ["steady solve did not converge"]
        problems: list[str] = []
        _within(problems, "|m2 - 3|", abs(sp.moment(phi, 2) - 3.0), self.M2_TOL)
        _within(problems, "m4 / m4* - 1",
                abs(sp.moment(phi, 4) / refs.steady_m4(e) - 1.0), self.M4_RTOL)
        env = refs.sweep_envelope(eps)
        _within(problems, "L1 / envelope", row["l1"] / env, 1.0)
        if prev is not None:
            if not row["l1"] < prev["l1"]:
                problems.append(f"L1 {row['l1']:.3g} does not decrease from {prev['l1']:.3g}")
            c_prev = prev["l1"] / refs.sweep_envelope(prev["eps"])
            _within(problems, "C growth", (row["l1"] / env) / c_prev, 3.0)
        return problems

    def traced_extras(self) -> dict:
        return _gain_timing(self.grid, 32, repeats=50)


class Trajectory:
    """Fixed-horizon `spectral.evolve` at the `evolve` grid, in both frames.

    Inputs are fixed; the seed changes nothing. The horizon is short so that
    a round fits a run; the step count is fixed by it.
    """

    E = 0.95
    MIX = (0.5, 0.6, 1.4)
    HORIZON = 0.4
    KEPT = (0.0, 0.2, 0.4)
    GAIN_ES = (0.8, 0.9, 0.99)
    REFERENCE = {"table_mb": (32,), "reps": 1}  # a plan of 29 MB
    FRAMES = ("rescaled-g", "unscaled-f")
    MOMENT_RTOL = 1e-5   # discretization of the flow and of the moment stencil
    RECON_L1 = 1e-9      # Simpson inversion of a profile resolved to x_max
    FISHER_SLACK = 0.02  # realspace.fisher_trajectory_check's default slack

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.notes: dict = {}

    def setup(self) -> None:
        self.grid = sp.RadialGrid(4096, 50.0)
        self.phi0 = sp.CharacteristicProfile.bimaxwellian(self.grid, *self.MIX)
        self.r_nodes = rs.default_r_nodes()
        self.configs = {f: sp.SolverConfig(dt=0.005, t_max=self.HORIZON, frame=f)
                        for f in self.FRAMES}
        for cfg in self.configs.values():
            sp.step(self.phi0, self.E, cfg)
        for e in self.GAIN_ES:
            sp.gain_fourier(self.phi0, e)

    def round(self, ops: Ops) -> None:
        kept: list = []
        for frame in self.FRAMES:
            ops.run(f"evolve {frame}", self._evolve, frame, kept)
        for label, phi in kept:
            for e in self.GAIN_ES:
                ops.run(f"fisher-gain {label} e={e:g}", self._gain_check, phi, e)

    def _evolve(self, frame: str, kept: list) -> list[str]:
        rescaled = frame == "rescaled-g"
        trace = sp.evolve(self.phi0, self.E, self.configs[frame],
                          diagnostics_schedule=self.KEPT, keep_profiles=True)
        problems: list[str] = []
        if not np.allclose(trace.times, self.KEPT, rtol=0.0, atol=1e-9):
            return [f"kept times {trace.times.tolist()} != {list(self.KEPT)}"]
        law = refs.rescaled_moments if rescaled else refs.unscaled_moments
        m2, m4 = law(self.E, *refs.mixture_moments(*self.MIX), trace.times)
        _within(problems, f"m2 vs law ({frame})",
                np.abs(trace.diagnostics["m2"] / m2 - 1.0), self.MOMENT_RTOL)
        _within(problems, f"m4 vs law ({frame})",
                np.abs(trace.diagnostics["m4"] / m4 - 1.0), self.MOMENT_RTOL)
        fisher = []
        for phi in trace.profiles:
            f = rs.reconstruct(phi, self.r_nodes)
            fisher.append(rs.fisher_information(f))
            if phi.time == 0.0:
                if rescaled:
                    exact = refs.mixture_density(f.r, *self.MIX)
                    y = 4.0 * math.pi * f.r ** 2 * np.abs(f.values - exact)
                    l1 = float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(f.r)))
                    _within(problems, "L1 of reconstructed mixture", l1, self.RECON_L1)
                else:
                    continue  # the same initial profile was kept by the rescaled run
            kept.append((f"{frame} t={phi.time:g}", phi))
        # unscaled densities are rescaled ones dilated to temperature exp(-2Et),
        # which multiplies Fisher information by exp(2Et)
        rate = refs.growth(self.E) - (2.0 * refs.dissipation(self.E) if rescaled else 0.0)
        bound = fisher[0] * np.exp(rate * trace.times) * (1.0 + self.FISHER_SLACK)
        _within(problems, f"Fisher / trajectory bound ({frame})", np.array(fisher) / bound, 1.0)
        return problems

    def _gain_check(self, phi, e: float) -> list[str]:
        rep = rs.fisher_gain_check(phi, e, r_nodes=self.r_nodes)
        problems: list[str] = []
        _within(problems, "I(Q+ f) / I(f) - growth", rep["ratio"] - refs.growth(e), 1.0)
        return problems

    def traced_extras(self) -> dict:
        return _gain_timing(self.grid, 64, repeats=10)


def gaussian_kernel(rng: np.random.Generator):
    """Product of six Gaussian bumps, one per map argument (width <= 1), the
    form of the kinematics suite's test kernel, with seeded centres."""
    centres = rng.uniform(-1.2, 1.2, size=(6, 3))
    widths = rng.uniform(0.7, 1.0, size=6)

    def K(*args):
        out = 0.0
        for a, c, w in zip(args, centres, widths):
            out = out + np.sum((np.asarray(a) - c) ** 2, axis=-1) / (2.0 * w * w)
        return np.exp(-out)

    return K


class Particles:
    """DSMC at the `dsmc` defaults, driven in chunks with ECF records between
    them, plus the sigma and n change-of-variables identities.

    The seed keys the initial ensemble, the DSMC streams, the test kernel's
    centres and the Monte Carlo streams.
    """

    N = 100_000
    E = 0.5
    DT = 0.01
    T_MAX = 10.0
    CHUNKS = 2  # ECF records at t = 0, 5, 10
    RECORD_EVERY = 5  # run's default for one call to T_MAX, kept for every chunk
    X = np.linspace(0.0, 5.0, 21)
    MC_SAMPLES = 10 ** 6
    NOISE_PAIRS = 4  # permutations of the ensemble used to estimate collision noise
    REFERENCE = {"table_mb": (4, 32), "reps": 1}  # 2.4 MB ensemble, 24 MB sample arrays

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng([seed, 1])
        self.kernel = gaussian_kernel(np.random.default_rng([seed, 2]))
        self.notes: dict = {}

    def setup(self) -> None:
        self.ens0 = dsmc.sample_initial("maxwellian", self.N, self.seed, e=self.E)
        _, self.m2_0, self.m4_0 = self.ens0.moments()

    def round(self, ops: Ops) -> None:
        ens = self.ens0.copy()
        self._noise = [(0.0, self._collision_noise(ens.velocities))]
        self._times = Counter()
        ops.run("ecf t=0", self._ecf, ens)
        for c in range(1, self.CHUNKS + 1):
            ops.run(f"run chunk {c}", self._chunk, ens)
            ops.run(f"ecf t={ens.t:g}", self._ecf, ens)
        for which in ("sigma-theorem", "n-theorem"):
            ops.run(f"mc {which}", self._identity, which)
        # the three particle jobs a user runs on their own, program time only
        self.notes.setdefault("dsmc_run_s", []).append(self._times["run"])
        self.notes.setdefault("ecf_record_s", []).append(
            self._times["ecf"] / (self.CHUNKS + 1))
        self.notes.setdefault("mc_identity_s", []).append(self._times["mc"] / 2)
        self.notes["collisions"] = ens.collisions_applied

    def _timed(self, job: str, fn, *args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._times[job] += clock() - t0

    def _collision_noise(self, vel: np.ndarray) -> np.ndarray:
        """E[d d^T] per collision, d = changes of (sum |v|^2, sum |v|^4),
        estimated on disjoint random pairs of the ensemble."""
        n = vel.shape[0] // 2
        acc = np.zeros((2, 2))
        for _ in range(self.NOISE_PAIRS):
            perm = self.rng.permutation(vel.shape[0])
            v, w = vel[perm[:n]], vel[perm[n:2 * n]]
            sigma = self.rng.standard_normal((n, 3))
            sigma /= np.linalg.norm(sigma, axis=1, keepdims=True)
            vp, wp = refs.swap_collision(v, w, sigma, self.E)
            sq = [np.einsum("ij,ij->i", a, a) for a in (v, w, vp, wp)]
            d = np.stack([sq[2] + sq[3] - sq[0] - sq[1],
                          sq[2] ** 2 + sq[3] ** 2 - sq[0] ** 2 - sq[1] ** 2])
            acc += d @ d.T / n
        return acc / self.NOISE_PAIRS

    def _moment_sd(self, t: np.ndarray) -> np.ndarray:
        """Standard deviations of (m2, m4) about their laws at times t.

        Linear-noise covariance P' = J P + P J^T + Q / (2N), P(0) = 0: events
        arrive at rate N/2, each moves (m2, m4) by d/N, and deviations relax
        with the Jacobian J of the moment laws. Q is interpolated linearly
        between the ensemble estimates, which overstates it where it decays.
        """
        qt = np.array([s for s, _ in self._noise])
        qv = np.array([q for _, q in self._noise]).reshape(len(qt), 4)
        grid = np.linspace(0.0, float(np.max(t)), 2001)
        h = grid[1] - grid[0]
        m2 = refs.unscaled_moments(self.E, self.m2_0, self.m4_0, grid)[0]
        jac = [refs.unscaled_jacobian(self.E, m) for m in m2]
        noise = np.stack([np.interp(grid, qt, qv[:, k]) for k in range(4)], axis=1)
        noise = noise.reshape(-1, 2, 2) / (2.0 * self.N)

        def rhs(k, P):
            return jac[k] @ P + P @ jac[k].T + noise[k]

        P = np.zeros((2, 2))
        sd = np.zeros((len(grid), 2))
        for k in range(len(grid) - 1):  # Heun's method
            k1 = rhs(k, P)
            P = P + 0.5 * h * (k1 + rhs(k + 1, P + h * k1))
            sd[k + 1] = np.sqrt(np.maximum(np.diag(P), 0.0))
        return np.stack([np.interp(t, grid, sd[:, i]) for i in range(2)], axis=1)

    def _chunk(self, ens) -> list[str]:
        series = self._timed("run", dsmc.run, ens, t_max=self.T_MAX / self.CHUNKS,
                             dt=self.DT, record_every=self.RECORD_EVERY)
        self._noise.append((ens.t, self._collision_noise(ens.velocities)))
        problems: list[str] = []
        _within(problems, "|m1|", np.max(np.abs(series["m1"])), 1e-12)
        # whole time units only: a band checked at every record would be
        # crossed by the running maximum of the noise far more often
        rows = np.nonzero(np.abs(series["t"] - np.round(series["t"])) < 1e-9)[0][1:]
        t = series["t"][rows]
        m2, m4 = refs.unscaled_moments(self.E, self.m2_0, self.m4_0, t)
        sd = self._moment_sd(t)
        _within(problems, "|m2 - law|", np.abs(series["m2"][rows] - m2),
                SIGMAS * sd[:, 0] + 1e-12 * m2)
        _within(problems, "|m4 - law|", np.abs(series["m4"][rows] - m4),
                SIGMAS * sd[:, 1] + 1e-12 * m4)
        return problems

    def _ecf(self, ens) -> list[str]:
        values, stderr = self._timed("ecf", dsmc.ecf, ens, self.X)
        speed = np.linalg.norm(ens.velocities, axis=1)
        # exact average over the sphere of cos(x d.v): sin(x|v|)/(x|v|)
        radial = np.sinc(np.outer(self.X, speed) / math.pi)
        own = radial.mean(axis=1)
        own_se = radial.std(axis=1, ddof=1) / math.sqrt(self.N)
        problems: list[str] = []
        # the direction lattice is unbiased for isotropic velocities, so the
        # two averages differ by sampling error only
        _within(problems, "|ECF - radial average|", np.abs(values - own),
                SIGMAS * (stderr + own_se) + 1e-12)
        if ens.t == 0.0:
            _within(problems, "|radial average - exp(-x^2/2)|",
                    np.abs(own - np.exp(-0.5 * self.X ** 2)), 3.0 / math.sqrt(self.N))
        return problems

    def _identity(self, which: str) -> list[str]:
        lhs, rhs, se_l, se_r = self._timed(
            "mc", kin.mc_change_of_variables, self.kernel, self.E, which=which,
            samples=self.MC_SAMPLES, seed=self.seed)
        problems: list[str] = []
        _within(problems, f"|lhs - rhs| ({which})", abs(lhs - rhs),
                SIGMAS * math.hypot(se_l, se_r))
        return problems

    def traced_extras(self) -> dict:
        return {}


WORKLOADS = {"steady": Steady, "trajectory": Trajectory, "particles": Particles}
