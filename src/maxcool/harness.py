"""Experiment orchestration: rate fits, verification suites, sweeps, artifacts.

This module turns the library checks into runnable experiments. It owns the
exponential-rate fitter used by every decay check, the flat key=value
experiment configuration (lossless text round trip, CLI > file > defaults
precedence), the named verification suites that aggregate module-level
assertions into a pass/fail report, and the small-inelasticity steady-state
sweep. The suites read their sizes, steps, horizons and tolerances from one
declared table (`FULL`, or `FAST` for smoke runs). A verify report and each
of its artifacts carry a provenance stamp (suite, fast, that table, the gain
quadrature order and the package versions) plus the SHA-256 of its canonical
text; the other CLI artifacts embed their resolved configuration the same
way. All randomness is seeded; reports are deterministic given the stamp.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import dsmc
from . import kinematics as kin
from . import realspace as rs
from . import spectral as sp

logger = logging.getLogger(__name__)

__all__ = [
    "RateFit",
    "fit_exponential_rate",
    "ExperimentConfig",
    "SuiteParams",
    "FULL",
    "FAST",
    "config_fingerprint",
    "embed_provenance",
    "save_trace",
    "density_corpus",
    "sweep_epsilon",
    "verify",
    "save_report",
    "SUITES",
]

SUITES = ("kinematics", "fisher", "weak-decay", "regularity",
          "inequalities", "frame-consistency", "sweep")

_FRAME_ALIASES = {"rescaled": "rescaled-g", "unscaled": "unscaled-f",
                  "rescaled-g": "rescaled-g", "unscaled-f": "unscaled-f"}


# ---------------------------------------------------------------------------
# exponential rate fitting

@dataclass(frozen=True)
class RateFit:
    """Least-squares exponential fit y ~ exp(intercept - rate*t).

    `intercept` is ln y at t = 0; `window` is the (first, last) time actually
    used, always inside the data range; `r_squared` is reported even when the
    fit is poor (it is the caller's job to judge it).
    """

    rate: float
    intercept: float
    window: tuple[float, float]
    residual_rms: float
    r_squared: float
    n_points: int


def _as_series(series) -> tuple[np.ndarray, np.ndarray]:
    if not (isinstance(series, (tuple, list)) and len(series) == 2):
        raise ValueError("series must be a (t, y) pair of arrays")
    t = np.asarray(series[0], dtype=float)
    y = np.asarray(series[1], dtype=float)
    if t.ndim != 1 or t.shape != y.shape:
        raise ValueError("series t and y must be 1-D arrays of equal length")
    if len(t) and np.any(np.diff(t) <= 0):
        raise ValueError("series times must be strictly increasing")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("series must be finite")
    return t, y


def fit_exponential_rate(series, window: tuple[float, float] | None = None) -> RateFit:
    """Fit ln y against t by least squares on a (t, y) pair; rate = -slope.

    `window = (lo, hi)` restricts the fit to lo <= t <= hi. The default skips
    the initial transient t < 5 whenever the series extends past t = 5
    (decay laws here are asymptotic; early times carry unknown prefactors).
    Requires y > 0 on the window and at least 5 points.
    """
    t, y = _as_series(series)
    if window is None:
        lo = 5.0 if len(t) and t[-1] > 5.0 else -math.inf
        hi = math.inf
    else:
        lo, hi = float(window[0]), float(window[1])
        if not lo < hi:
            raise ValueError(f"window must satisfy lo < hi, got {(lo, hi)}")
    mask = (t >= lo) & (t <= hi)
    tw, yw = t[mask], y[mask]
    if len(tw) < 5:
        raise ValueError(f"need at least 5 points in the fit window, got {len(tw)}")
    if np.any(yw <= 0):
        raise ValueError("y must be positive on the fit window")
    ln = np.log(yw)
    slope, icpt = np.polyfit(tw, ln, 1)
    resid = ln - (slope * tw + icpt)
    ss_res = float(resid @ resid)
    centered = ln - ln.mean()
    ss_tot = float(centered @ centered)
    if ss_tot > 0.0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res <= 1e-28 * len(tw) else 0.0
    return RateFit(rate=float(-slope), intercept=float(icpt),
                   window=(float(tw[0]), float(tw[-1])),
                   residual_rms=math.sqrt(ss_res / len(tw)),
                   r_squared=r2, n_points=int(len(tw)))


# ---------------------------------------------------------------------------
# suite parameters

@dataclass(frozen=True)
class SuiteParams:
    """Every size, step, horizon, tolerance and sample count of the suites.

    `FULL` sizes the reported battery and `FAST` the smoke runs; the asserted
    laws and their bounds are the same in both. Grids are `(n, x_max)` for
    `spectral.RadialGrid`, node sets `(r_max, n)` for
    `realspace.default_r_nodes`. Fields with defaults hold in both tables.
    The whole table is stamped into every verify report and its hash.
    """

    dt: float                           # spectral step of the suites and the corpus
    grid: tuple[int, float]             # every suite run except the sweep
    n_particles: int                    # DSMC ensembles: weak-decay and frame-consistency
    run_t_max: float                    # tracked e=0.95 run; also ends the d2 fit window
    steady_t_max: float                 # shared e=0.95 steady solve
    steady_tol: float
    kin_triples: int
    mc_samples: int
    kernel_seeds: tuple[int, ...]
    fisher_t_max: float
    fisher_r_nodes: tuple[float, int] | None  # None: the realspace default
    fisher_checks: int
    gain_es: tuple[float, ...]
    gain_entries: int | None            # leading corpus entries; None: all
    frame_t_max: float
    ecf_t_max: float
    corpus_grid: tuple[int, float]
    r_nodes: tuple[float, int]          # reconstructions of the corpus and the sweep
    corpus_t_max: float                 # evolved corpus entry
    corpus_steady_t_max: float
    corpus_tol_floor: float             # the corpus steady tol is max(tol, floor)
    sweep_eps: tuple[float, ...]
    sweep_grid: tuple[int, float]
    sweep_tol: float
    sweep_dt: float = 0.01
    sweep_t_max: float = 250.0
    decay_t_max: float = 10.0           # m2-rate runs, spectral and DSMC
    dsmc_dt: float = 0.01

    def solver(self, dt: float, t_max: float,
               frame: str = "rescaled-g") -> sp.SolverConfig:
        return sp.SolverConfig(dt=dt, t_max=t_max, frame=frame)


FULL = SuiteParams(
    dt=0.01, grid=(1024, 30.0), n_particles=100_000, run_t_max=40.0,
    steady_t_max=250.0, steady_tol=1e-7,
    kin_triples=1_000_000, mc_samples=1_000_000, kernel_seeds=(11, 23, 47),
    fisher_t_max=20.0, fisher_r_nodes=None, fisher_checks=9,
    gain_es=(0.8, 0.9, 0.99), gain_entries=None,
    frame_t_max=5.0, ecf_t_max=10.0,
    corpus_grid=(2048, 40.0), r_nodes=(10.0, 2001), corpus_t_max=5.0,
    corpus_steady_t_max=250.0, corpus_tol_floor=0.0,
    sweep_eps=(0.1, 0.05, 0.02, 0.01), sweep_grid=(1024, 30.0), sweep_tol=1e-6,
)

FAST = SuiteParams(
    dt=0.02, grid=(256, 20.0), n_particles=20_000, run_t_max=30.0,
    steady_t_max=120.0, steady_tol=1e-5,
    kin_triples=10_000, mc_samples=50_000, kernel_seeds=(11,),
    fisher_t_max=4.0, fisher_r_nodes=(8.0, 801), fisher_checks=4,
    gain_es=(0.9,), gain_entries=2,
    frame_t_max=2.0, ecf_t_max=4.0,
    corpus_grid=(512, 24.0), r_nodes=(8.0, 1201), corpus_t_max=2.0,
    corpus_steady_t_max=80.0, corpus_tol_floor=1e-5,
    sweep_eps=(0.1, 0.02), sweep_grid=(512, 24.0), sweep_tol=1e-5,
)


def _params(fast: bool) -> SuiteParams:
    if fast:
        return FAST
    return FULL


def _provenance(suite: str, fast: bool) -> tuple[dict, str]:
    """The verify stamp and the SHA-256 of its canonical JSON text."""
    stamp = {"suite": suite, "fast": fast,
             "table": dataclasses.asdict(_params(fast)),
             "quad_order": sp.QUAD_ORDER,
             "versions": {"maxcool": __version__, "numpy": np.__version__,
                          "scipy": scipy.__version__}}
    return stamp, hashlib.sha256(_canonical(stamp).encode("utf-8")).hexdigest()


def _canonical(stamp: dict) -> str:
    return json.dumps(stamp, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# experiment configuration

def _cast_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass
class ExperimentConfig:
    """Flat experiment parameters shared by all subcommands.

    Unused fields are simply ignored by a given operation. Round-trips
    losslessly through the flat key=value text form; precedence when
    resolving is CLI flags > config file > these defaults.
    """

    e: float = 0.95
    grid_n: int = 4096
    x_max: float = 50.0
    dt: float = 0.005
    t_max: float = 10.0
    init: str = "maxwellian"
    frame: str = "rescaled"
    n_particles: int = 100_000
    seed: int = 0
    tol: float = 1e-7
    eps: str = ",".join(map(str, FULL.sweep_eps))
    suite: str = "all"
    out: str = ""
    report: str = ""
    out_dir: str = ""
    record_every: int = 0  # 0 means "operation default"
    fast: bool = False

    def __post_init__(self):
        if not (0.0 < self.e <= 1.0):
            raise ValueError(f"e must be in (0, 1], got {self.e}")
        if self.grid_n < 256:  # matches the solver grid's minimum
            raise ValueError(f"grid_n must be at least 256, got {self.grid_n}")
        for name in ("x_max", "dt", "t_max", "tol"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive, got {v}")
        if self.n_particles < 2:
            raise ValueError(f"n_particles must be at least 2, got {self.n_particles}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.record_every < 0:
            raise ValueError(f"record_every must be nonnegative, got {self.record_every}")
        if self.frame not in _FRAME_ALIASES:
            raise ValueError(f"frame must be one of {sorted(set(_FRAME_ALIASES))}")
        if self.suite not in SUITES + ("all",):
            raise ValueError(f"suite must be one of {SUITES + ('all',)}, got {self.suite!r}")
        dsmc.parse_initial_spec(self.init)  # validate early; raises on bad specs
        self.eps_values()

    def eps_values(self) -> tuple[float, ...]:
        try:
            vals = tuple(float(s) for s in self.eps.split(","))
        except ValueError:
            raise ValueError(f"eps must be comma-separated floats, got {self.eps!r}")
        if not vals:
            raise ValueError("eps list is empty")
        for v in vals:
            if not (0.0 < v <= 0.25):
                raise ValueError(f"eps values must be in (0, 0.25], got {v}")
        if np.any(np.diff(vals) >= 0):
            raise ValueError("eps values must be strictly descending")
        return vals

    def solver_frame(self) -> str:
        return _FRAME_ALIASES[self.frame]

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = repr(v)  # shortest exact round trip
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse_kv(text: str) -> dict:
        """Typed key=value pairs from flat config text (only the keys present)."""
        kv: dict = {}
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {ln} is not key=value: {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_CASTS:
                raise ValueError(f"unknown config key {key!r} on line {ln}")
            cast = _CONFIG_CASTS[key]
            kv[key] = _cast_bool(val) if cast is bool else cast(val.strip())
        return kv

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls(**cls.parse_kv(text))

    def to_file(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))

    @classmethod
    def from_sources(cls, file_path=None, base: dict | None = None,
                     **overrides) -> "ExperimentConfig":
        """Resolve defaults < base < config file < overrides (None skipped)."""
        merged = {f.name: f.default for f in dataclasses.fields(cls)}
        if base:
            merged.update(base)
        if file_path:
            merged.update(cls.parse_kv(Path(file_path).read_text(encoding="utf-8")))
        merged.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**merged)


# each field's parser is the type of its default
_CONFIG_CASTS = {f.name: type(f.default) for f in dataclasses.fields(ExperimentConfig)}


def config_fingerprint(cfg: ExperimentConfig) -> tuple[str, str]:
    """Resolved config text plus its SHA-256 hex digest."""
    text = cfg.to_text()
    return text, hashlib.sha256(text.encode("utf-8")).hexdigest()


def embed_provenance(path, cfg: ExperimentConfig) -> None:
    """Insert the resolved config and its hash as comments after line 1.

    All CSV loaders in this package skip comment lines after the format
    header, so provenance embedding never breaks a round trip.
    """
    text, sha = config_fingerprint(cfg)
    _insert_comments(path, [f"cfg {ln}" for ln in text.strip().splitlines()]
                     + [f"sha256 {sha}"])


def _insert_comments(path, comments: list[str]) -> None:
    p = Path(path)
    lines = p.read_text(encoding="utf-8").splitlines(keepends=True)
    if not lines:
        raise ValueError(f"cannot embed provenance in empty file {path}")
    block = "".join(f"# {c}\n" for c in comments)
    p.write_text(lines[0] + block + "".join(lines[1:]), encoding="utf-8")


def save_trace(path, trace: sp.EvolutionTrace, e: float, frame: str) -> None:
    """Write an evolution trace as CSV under a `# maxcool-trace v1` header."""
    keys = list(trace.diagnostics)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# maxcool-trace v1 e={e:.17g} frame={frame}\n")
        # columns as a comment so np.loadtxt reads the body directly
        fh.write("# columns: t," + ",".join(keys) + "\n")
        for i, t in enumerate(trace.times):
            row = [f"{t:.17g}"] + [f"{trace.diagnostics[k][i]:.17g}" for k in keys]
            fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# density corpus

def density_corpus(e: float = 0.9, grid: sp.RadialGrid | None = None,
                   r_nodes=None, tol: float = 1e-6, fast: bool = False) -> list[dict]:
    """Five representative isotropic states with matched profile/density pairs.

    Two closed-form Maxwellian mixtures plus a unit Maxwellian, one profile
    evolved in the rescaled frame, and the steady profile at `e`. Densities
    for the evolved/steady entries are reconstructed on `r_nodes`.
    """
    return _density_corpus(_params(fast), e, grid, r_nodes, tol)


def _density_corpus(params: SuiteParams, e: float = 0.9,
                    grid: sp.RadialGrid | None = None, r_nodes=None,
                    tol: float = 1e-6) -> list[dict]:
    if grid is None:
        grid = sp.RadialGrid(*params.corpus_grid)
    if r_nodes is None:
        r_nodes = rs.default_r_nodes(*params.r_nodes)
    t_ev = params.corpus_t_max

    phi_max = sp.CharacteristicProfile.maxwellian(grid, 1.0)
    phi_a = sp.CharacteristicProfile.bimaxwellian(grid, 0.5, 0.6, 1.4)
    phi_b = sp.CharacteristicProfile.bimaxwellian(grid, 0.25, 0.5, 1.5)
    entries = [
        {"name": "maxwellian", "phi": phi_max,
         "f": rs.RadialDensity.maxwellian(r_nodes, 1.0)},
        {"name": "mixture-a", "phi": phi_a,
         "f": rs.RadialDensity.mixture(r_nodes, 0.5, 0.6, 1.4)},
        {"name": "mixture-b", "phi": phi_b,
         "f": rs.RadialDensity.mixture(r_nodes, 0.25, 0.5, 1.5)},
    ]
    evolved = sp.evolve(phi_a, e, params.solver(params.dt, t_ev),
                        diagnostics_schedule=[t_ev]).final
    entries.append({"name": "evolved", "phi": evolved,
                    "f": rs.reconstruct(evolved, r_nodes)})
    steady = sp.steady_profile(e, params.solver(params.dt, params.corpus_steady_t_max),
                               tol=max(tol, params.corpus_tol_floor), grid=grid)
    entries.append({"name": "steady", "phi": steady,
                    "f": rs.reconstruct(steady, r_nodes)})
    return entries


# ---------------------------------------------------------------------------
# small-inelasticity sweep

def _sweep_envelope(eps: np.ndarray) -> np.ndarray:
    return np.sqrt(eps) * (1.0 + np.sqrt(np.abs(np.log(eps))))


def sweep_epsilon(eps_list, config: sp.SolverConfig | None = None,
                  grid: sp.RadialGrid | None = None, r_nodes=None,
                  tol: float = FULL.sweep_tol,
                  raise_on_failure: bool = True) -> dict:
    """Steady-state distance to the Maxwellian across small inelasticities.

    For each eps (descending, in (0, 0.25]) computes the steady profile at
    e = 1 - 2 eps, reconstructs the density, and measures the L1 distance to
    the Maxwellian at the matched temperature. Checks that the distance
    decreases strictly with eps and that the fitted envelope constant
    C(eps) = L1 / (sqrt(eps) (1 + sqrt|log eps|)) is stable within a factor 3
    between consecutive points. Non-converged points are dropped and
    reported; each row and dropped entry lists the warnings its solve raised
    and its number of solver steps.
    With `raise_on_failure` the checks raise AssertionError; the returned
    table always carries the full data and verdicts. The defaults are the
    `FULL` sweep suite's.

    Note: the envelope is an upper bound, and the measured distances fall
    faster than it (roughly like eps^2), so the two-sided factor-3 stability
    fails for eps ratios much above 2; `c_growth_ok` reports the one-sided
    reading (C never grows by more than 3x as eps decreases) separately.
    """
    eps = np.asarray(list(eps_list), dtype=float)
    if eps.ndim != 1 or len(eps) == 0:
        raise ValueError("eps_list must be a nonempty 1-D sequence")
    if np.any(~np.isfinite(eps)) or np.any(eps <= 0) or np.any(eps > 0.25):
        raise ValueError("eps values must lie in (0, 0.25]")
    if np.any(np.diff(eps) >= 0):
        raise ValueError("eps values must be strictly descending")
    if grid is None:
        grid = sp.RadialGrid(*FULL.sweep_grid)
    if r_nodes is None:
        r_nodes = rs.default_r_nodes(*FULL.r_nodes)
    if config is None:
        config = FULL.solver(FULL.sweep_dt, FULL.sweep_t_max)

    rows: list[dict] = []
    dropped: list[dict] = []
    for ev in eps.tolist():
        e = 1.0 - 2.0 * ev
        phi, caught = _recording_warnings(sp.steady_profile, e, config, tol=tol,
                                          grid=grid)
        if not phi.meta.get("converged", False):
            dropped.append({"eps": ev, "e": e,
                            "cauchy_d2": phi.meta.get("cauchy_d2"),
                            "steps": phi.meta["steps"],
                            "warnings": caught})
            logger.warning("sweep: dropping eps=%g (steady state not converged)", ev)
            continue
        f = rs.reconstruct(phi, r_nodes)
        M = rs.RadialDensity.maxwellian(r_nodes, theta=f.m2 / 3.0)
        l1 = rs.l1_distance(f, M)
        env = float(_sweep_envelope(np.array([ev]))[0])
        rows.append({"eps": ev, "e": e, "l1": l1, "envelope": env,
                     "c_fit": l1 / env,
                     "residual": phi.meta.get("fixed_point_residual"),
                     "steps": phi.meta["steps"],
                     "warnings": caught})

    c = np.array([r["c_fit"] for r in rows])
    l1s = np.array([r["l1"] for r in rows])
    monotone = bool(len(rows) >= 2 and np.all(np.diff(l1s) < 0))
    ratios = c[:-1] / c[1:] if len(c) >= 2 else np.array([])
    # two-sided stability: consecutive fitted constants within a factor 3
    stable = bool(len(ratios) and np.all((ratios > 1.0 / 3.0) & (ratios < 3.0)))
    # one-sided: an upper-bound envelope only forbids C growing as eps drops
    growth_ok = bool(len(ratios) and np.all(1.0 / ratios < 3.0))

    table = {
        "eps": [r["eps"] for r in rows], "e": [r["e"] for r in rows],
        "l1": [r["l1"] for r in rows], "envelope": [r["envelope"] for r in rows],
        "c_fit": c.tolist(), "c_ratios": ratios.tolist(),
        "steps": [r["steps"] for r in rows],
        "warnings": [r["warnings"] for r in rows], "rows": rows, "dropped": dropped,
        "monotone": monotone, "c_stable": stable, "c_growth_ok": growth_ok,
    }
    if raise_on_failure:
        if len(rows) < 2:
            raise AssertionError(f"sweep needs at least 2 converged points, got {len(rows)}")
        if not monotone:
            raise AssertionError(f"L1 distances are not strictly decreasing: {l1s.tolist()}")
        if not stable:
            bad = [(rows[i]["eps"], rows[i + 1]["eps"], float(r))
                   for i, r in enumerate(ratios) if not (1.0 / 3.0 < r < 3.0)]
            raise AssertionError(
                "fitted envelope constant is not stable within a factor 3 "
                f"across consecutive pairs: violations {bad}; full C list {c.tolist()}")
    return table


def _recording_warnings(fn, *args, **kwargs):
    """fn(...) and the messages of every warning it raised, none shown."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    return out, [str(w.message) for w in caught]


_SWEEP_COLUMNS = ("eps", "e", "l1", "envelope", "c_fit")


def _save_sweep_csv(path, table: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# maxcool-sweep v1\n")
        fh.write(",".join(_SWEEP_COLUMNS) + "\n")
        for row in zip(*(table[k] for k in _SWEEP_COLUMNS)):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


# ---------------------------------------------------------------------------
# verification suites

def _check(name: str, claim: str, measured, bound, slack, holds, **detail) -> dict:
    row = {"name": name, "claim": claim,
           "measured": None if measured is None else float(measured),
           "bound": None if bound is None else float(bound),
           "slack": None if slack is None else float(slack),
           "status": "pass" if holds else "fail"}
    if detail:
        row["detail"] = detail
    if not holds:
        logger.error("check failed: %r", row)
    return row


def _error_check(name: str, claim: str, exc: Exception) -> dict:
    logger.exception("check errored: %s", name)
    return {"name": name, "claim": claim, "measured": None, "bound": None,
            "slack": None, "status": "error", "detail": {"error": repr(exc)}}


_KIN_ES = (0.3, 0.5, 0.7, 0.9, 0.99, 1.0)
_MC_ES = (0.3, 0.7, 0.99)


def _gaussian_kernel(seed: int):
    # product of six Gaussian bumps with width <= 1, one per map argument;
    # decays fast enough for the Gaussian importance sampling
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.2, 1.2, size=(6, 3))
    tau = rng.uniform(0.7, 1.0, size=6)

    def K(v1, w1, o1, v2, w2, o2):
        out = 0.0
        for a, ci, ti in zip((v1, w1, o1, v2, w2, o2), c, tau):
            out = out + np.sum((np.asarray(a) - ci) ** 2, axis=-1) / (2 * ti * ti)
        return np.exp(-out)

    return K


def _kinematics_exactness(e: float, n: int, seed: int) -> list[dict]:
    """Vectorized collision-law identities on n random triples at one e."""
    rng = kin.block_rng(seed, 900 + int(round(1000 * e)))
    v = rng.standard_normal((n, 3))
    w = rng.standard_normal((n, 3))
    sigma = kin.uniform_sphere(rng, n)
    scale = float(np.max(np.abs(np.concatenate([v, w]))))

    vp, wp, sigmap, _ = kin.swap_forward(v, w, sigma, e)
    checks = []

    mom = np.max(np.abs((vp + wp) - (v + w)))
    checks.append(_check(
        f"swap-momentum e={e:g}", "pair momentum is unchanged by the collision map",
        mom, 1e-10, 1e-10 - mom, mom <= 1e-10))

    # energy law in the reflection frame: n = (k - sigma)/|k - sigma|
    u = v - w
    unorm = np.linalg.norm(u, axis=1)
    k = u / unorm[:, None]
    nvec = k - sigma
    nn = np.linalg.norm(nvec, axis=1)
    ok = nn > 1e-12  # sigma parallel to k leaves the impact direction undefined
    nvec = nvec[ok] / nn[ok, None]
    un = np.einsum("ij,ij->i", u[ok], nvec)
    de = (np.einsum("ij,ij->i", vp, vp) + np.einsum("ij,ij->i", wp, wp)
          - np.einsum("ij,ij->i", v, v) - np.einsum("ij,ij->i", w, w))
    err_energy = np.max(np.abs(de[ok] + 0.5 * (1.0 - e * e) * un * un))
    checks.append(_check(
        f"swap-energy e={e:g}",
        "kinetic energy drops by (1-e^2)/2 times the squared normal velocity",
        err_energy, 1e-8, 1e-8 - err_energy, err_energy <= 1e-8))

    vb, wb, sigmab, _ = kin.swap_inverse(vp, wp, sigmap, e)
    rt = max(np.max(np.abs(vb - v)), np.max(np.abs(wb - w)),
             np.max(np.abs(sigmab - sigma)))
    checks.append(_check(
        f"swap-roundtrip e={e:g}", "inverse collision map restores the pair exactly",
        rt, 1e-8, 1e-8 - rt, rt <= 1e-8))

    # reflection picture on the converted normals, forward then inverse
    coef_f = 0.5 * (1.0 + e)
    coef_i = (1.0 + e) / (2.0 * e)
    vr, wr = kin.reflect(v[ok], w[ok], nvec, coef_f)
    vrb, wrb = kin.reflect(vr, wr, nvec, coef_i)
    rt_r = max(np.max(np.abs(vrb - v[ok])), np.max(np.abs(wrb - w[ok])))
    checks.append(_check(
        f"reflect-roundtrip e={e:g}", "inverse reflection map restores the pair exactly",
        rt_r, 1e-8, 1e-8 - rt_r, rt_r <= 1e-8))

    # the two parameterizations produce the same post-collisional pair
    par = max(np.max(np.abs(vr - vp[ok])), np.max(np.abs(wr - wp[ok])))
    checks.append(_check(
        f"param-consistency e={e:g}",
        "direction-exchange and reflection parameterizations agree",
        par, 1e-8 * max(1.0, scale), 1e-8 * max(1.0, scale) - par,
        par <= 1e-8 * max(1.0, scale)))

    # Jacobian of the 6-dim reflection map has |det| = e (chunked direct dets).
    # At fixed n the coded map is linear in (v, w), so column j of J is the
    # map applied to the j-th unit vector of R^6.
    worst = 0.0
    basis = np.eye(6)
    for lo in range(0, len(nvec), 50_000):
        nb = nvec[lo:lo + 50_000]
        J = np.empty((len(nb), 6, 6))
        for j in range(6):
            vj = np.broadcast_to(basis[j, :3], nb.shape)
            wj = np.broadcast_to(basis[j, 3:], nb.shape)
            J[:, :3, j], J[:, 3:, j] = kin.reflect(vj, wj, nb, coef_f)
        dets = np.abs(np.linalg.det(J))
        worst = max(worst, float(np.max(np.abs(dets - e))))
    checks.append(_check(
        f"jacobian e={e:g}", "volume contraction of the collision map equals e",
        worst, 1e-6, 1e-6 - worst, worst <= 1e-6))

    # the vector identity behind the Fisher gain bound, at eta = v - w
    z = float(np.max(kin.z_identity_residual(u, sigma, e) / unorm))
    checks.append(_check(
        f"z-identity e={e:g}", "the Z combination of eta+ and eta- equals its closed form",
        z, 1e-10, 1e-10 - z, z <= 1e-10))
    return checks


def _suite_kinematics(params: SuiteParams) -> tuple[list[dict], dict]:
    checks: list[dict] = []
    for e in _KIN_ES:
        try:
            checks.extend(_kinematics_exactness(e, params.kin_triples, seed=2))
        except Exception as exc:  # propagate into the report, keep going
            checks.append(_error_check(f"exactness e={e:g}",
                                       "collision-law identities", exc))
    mc_log = []
    for ks in params.kernel_seeds:
        K = _gaussian_kernel(ks)
        for e in _MC_ES:
            for which in ("sigma-theorem", "n-theorem"):
                name = f"mc-{which} kernel={ks} e={e:g}"
                claim = ("gain-side change of variables leaves the collision "
                         "average invariant")
                try:
                    lhs, rhs, sl, sr = kin.mc_change_of_variables(
                        K, e, which=which, samples=params.mc_samples, seed=7)
                    sig = math.hypot(sl, sr)
                    z = abs(lhs - rhs) / sig
                    checks.append(_check(name, claim, z, 3.0, 3.0 - z, z <= 3.0,
                                         lhs=lhs, rhs=rhs, stderr=sig))
                    mc_log.append({"name": name, "lhs": lhs, "rhs": rhs,
                                   "stderr": sig, "z": z})
                except Exception as exc:
                    checks.append(_error_check(name, claim, exc))
    return checks, {"mc_identities": mc_log}


def _ws_steady(ws: dict, params: SuiteParams) -> sp.CharacteristicProfile:
    if "steady_e095" not in ws:
        ws["steady_e095"], ws["steady_e095_warnings"] = _recording_warnings(
            sp.steady_profile, 0.95, params.solver(params.dt, params.steady_t_max),
            tol=params.steady_tol, grid=sp.RadialGrid(*params.grid))
    return ws["steady_e095"]


def _ws_run(ws: dict, params: SuiteParams) -> sp.EvolutionTrace:
    # rescaled-frame tracked run used by the decay, regularity, and distance checks
    if "run_e095" not in ws:
        steady = _ws_steady(ws, params)
        phi0 = sp.CharacteristicProfile.bimaxwellian(steady.grid, 0.5, 0.6, 1.4)
        ws["run_e095"] = sp.evolve(phi0, 0.95, params.solver(params.dt, params.run_t_max),
                                   reference=steady)
    return ws["run_e095"]


def _ws_corpus(ws: dict, params: SuiteParams) -> list[dict]:
    if "corpus" not in ws:
        ws["corpus"] = _density_corpus(params)
    return ws["corpus"]


def _suite_fisher(ws: dict, params: SuiteParams) -> tuple[list[dict], dict]:
    checks: list[dict] = []
    raw: dict = {}
    claim_traj = ("Fisher information along the rescaled flow stays under "
                  "exp((growth - 2E) t) times its initial value")
    try:
        phi0 = sp.CharacteristicProfile.bimaxwellian(sp.RadialGrid(*params.grid),
                                                     0.5, 0.6, 1.4)
        r_nodes = (None if params.fisher_r_nodes is None
                   else rs.default_r_nodes(*params.fisher_r_nodes))
        rep = rs.fisher_trajectory_check(phi0, 0.95,
                                         params.solver(params.dt, params.fisher_t_max),
                                         r_nodes=r_nodes, n_checks=params.fisher_checks)
        margin = float(np.min(np.array(rep["bounds"]) - np.array(rep["fisher"])))
        checks.append(_check("fisher-trajectory e=0.95", claim_traj,
                             margin, 0.0, margin, rep["holds"]))
        raw["fisher_trajectory"] = rep
    except Exception as exc:
        checks.append(_error_check("fisher-trajectory e=0.95", claim_traj, exc))

    claim_gain = "one application of the gain grows Fisher information by at most 1+growth"
    corpus = _ws_corpus(ws, params)
    for entry in corpus[:params.gain_entries]:
        names = [f"fisher-gain {entry['name']} e={e:g}" for e in params.gain_es]
        try:
            f = rs.reconstruct(entry["phi"], entry["f"].r)  # shared by every e
        except Exception as exc:
            checks.extend(_error_check(name, claim_gain, exc) for name in names)
            continue
        for e, name in zip(params.gain_es, names):
            try:
                rep = rs.fisher_gain_check(entry["phi"], e, f=f)
                slack = rep["bound_factor"] - rep["ratio"]
                checks.append(_check(name, claim_gain, rep["ratio"],
                                     rep["bound_factor"], slack, rep["holds"]))
            except Exception as exc:
                checks.append(_error_check(name, claim_gain, exc))

    # scale invariance of the frequency-sup / Fisher ratio (dilations move
    # numerator and denominator together; no sharp constant is asserted)
    claim_scale = "sup_x x|phi| / sqrt(I(f)) is invariant under dilations"
    try:
        grid = corpus[0]["phi"].grid
        r_nodes = corpus[0]["f"].r
        lam2 = 2.0  # dilation by sqrt(2): halves the temperature
        base = rs.fourier_sup_vs_fisher(
            sp.CharacteristicProfile.maxwellian(grid, 1.0),
            rs.RadialDensity.maxwellian(r_nodes, 1.0))
        dil = rs.fourier_sup_vs_fisher(
            sp.CharacteristicProfile.maxwellian(grid, 1.0 / lam2),
            rs.RadialDensity.maxwellian(r_nodes, 1.0 / lam2))
        mix = rs.fourier_sup_vs_fisher(
            sp.CharacteristicProfile.bimaxwellian(grid, 0.5, 0.6, 1.4),
            rs.RadialDensity.mixture(r_nodes, 0.5, 0.6, 1.4))
        mix_d = rs.fourier_sup_vs_fisher(
            sp.CharacteristicProfile.bimaxwellian(grid, 0.5, 0.6 / lam2, 1.4 / lam2),
            rs.RadialDensity.mixture(r_nodes, 0.5, 0.6 / lam2, 1.4 / lam2))
        rel = max(abs(dil / base - 1.0), abs(mix_d / mix - 1.0))
        tol = 5e-3
        checks.append(_check("fourier-sup-fisher scale-invariance", claim_scale,
                             rel, tol, tol - rel, rel <= tol,
                             ratios=[base, dil, mix, mix_d]))
    except Exception as exc:
        checks.append(_error_check("fourier-sup-fisher scale-invariance",
                                   claim_scale, exc))
    return checks, raw


def _suite_weak_decay(ws: dict, params: SuiteParams) -> tuple[list[dict], dict]:
    checks: list[dict] = []
    raw: dict = {}

    claim_sp = "temperature decays at rate 2E = (1-e^2)/4 in the unscaled frame"
    try:
        phi0 = sp.CharacteristicProfile.maxwellian(sp.RadialGrid(*params.grid), 1.0)
        trace = sp.evolve(phi0, 0.5, params.solver(params.dt, params.decay_t_max,
                                                   frame="unscaled-f"))
        fit = fit_exponential_rate((trace.times, trace.diagnostics["m2"]))
        target = 2.0 * sp.dissipation_rate(0.5)
        rel = abs(fit.rate - target) / target
        checks.append(_check("spectral-m2-rate e=0.5", claim_sp, rel, 5e-3,
                             5e-3 - rel, rel <= 5e-3,
                             rate=fit.rate, target=target, r_squared=fit.r_squared))
        raw["spectral_unscaled_trace"] = trace
    except Exception as exc:
        checks.append(_error_check("spectral-m2-rate e=0.5", claim_sp, exc))

    claim_mc = "particle-system energy decays at rate 2E = 0.1875 at e = 0.5"
    try:
        ens = dsmc.sample_initial("maxwellian", params.n_particles, seed=1, e=0.5)
        series = dsmc.run(ens, t_max=params.decay_t_max, dt=params.dsmc_dt)
        fit = fit_exponential_rate((series["t"], series["m2"]))
        target = 2.0 * sp.dissipation_rate(0.5)
        rel = abs(fit.rate - target) / target
        checks.append(_check("dsmc-m2-rate e=0.5", claim_mc, rel, 0.02,
                             0.02 - rel, rel <= 0.02,
                             rate=fit.rate, target=target, r_squared=fit.r_squared))
        raw["dsmc_series"] = series
    except Exception as exc:
        checks.append(_error_check("dsmc-m2-rate e=0.5", claim_mc, exc))

    claim_d2 = "weak distance to the steady profile decays at least at rate 0.9*gamma"
    try:
        trace = _ws_run(ws, params)
        d2_ref = trace.diagnostics["d2_ref"]
        fit = fit_exponential_rate((trace.times, d2_ref),
                                   window=(10.0, params.run_t_max))
        gamma = sp.gamma_constants(0.9, 0.95)[2]
        bound = 0.9 * gamma
        # the fit reads the decay only while d2_ref stays well above the
        # reference's own error: record both at the ends of the window
        ends = np.searchsorted(trace.times, fit.window)
        checks.append(_check("d2-decay-rate e=0.95", claim_d2, fit.rate, bound,
                             fit.rate - bound, fit.rate >= bound,
                             gamma=gamma, r_squared=fit.r_squared,
                             ref_cauchy_d2=_ws_steady(ws, params).meta["cauchy_d2"],
                             d2_ref_ends=d2_ref[ends].tolist()))
        raw["d2_fit"] = dataclasses.asdict(fit)
    except Exception as exc:
        checks.append(_error_check("d2-decay-rate e=0.95", claim_d2, exc))
    return checks, raw


_REG_KEYS = ("sup_0.5", "hr_0.5", "hr_1", "hr_2")


def _suite_regularity(ws: dict, params: SuiteParams) -> tuple[list[dict], dict]:
    checks: list[dict] = []
    raw: dict = {}
    steady = _ws_steady(ws, params)
    trace = _ws_run(ws, params)
    steady_vals = {
        "sup_0.5": sp.sup_weighted(steady, 0.5),
        "hr_0.5": sp.sobolev_norm(steady, 0.5),
        "hr_1": sp.sobolev_norm(steady, 1.0),
        "hr_2": sp.sobolev_norm(steady, 2.0),
    }
    for key in _REG_KEYS:
        claim = f"{key} stays within 5% of max(initial, steady) along the run"
        try:
            series = trace.diagnostics[key]
            bound = 1.05 * max(float(series[0]), steady_vals[key])
            peak = float(np.max(series))
            checks.append(_check(f"regularity-{key} e=0.95", claim, peak, bound,
                                 bound - peak, peak <= bound,
                                 initial=float(series[0]), steady=steady_vals[key]))
        except Exception as exc:
            checks.append(_error_check(f"regularity-{key} e=0.95", claim, exc))

    # qualitative two-sided envelope of the steady profile: logged, not scored
    claim_env = "steady profile sits between the Gaussian and exp(-x)(1+x) envelopes"
    try:
        rep = sp.envelope_report(steady)
        raw["hcs_envelope"] = rep
        checks.append(_check("hcs-envelope-report e=0.95", claim_env,
                             max(rep["max_lower_violation"], rep["max_upper_violation"]),
                             None, None, True, **rep))
        logger.info("hcs envelope report: %r", rep)
    except Exception as exc:
        checks.append(_error_check("hcs-envelope-report e=0.95", claim_env, exc))
    return checks, raw


def _suite_inequalities(ws: dict, params: SuiteParams) -> tuple[list[dict], dict]:
    checks: list[dict] = []
    corpus = _ws_corpus(ws, params)
    claim = "Nash, interpolation, and moment-to-mass inequalities hold with positive slack"
    for entry in corpus:
        name = f"inequalities {entry['name']}"
        try:
            rep = rs.inequality_suite(entry["phi"], entry["f"])
            slacks = [c["slack"] for c in rep["checks"]]
            worst = float(np.min(slacks))
            checks.append(_check(name, claim, worst, 0.0, worst, worst > 0.0,
                                 n_checks=rep["n_checks"]))
        except Exception as exc:
            checks.append(_error_check(name, claim, exc))
    return checks, {}


def _suite_frame_consistency(ws: dict, params: SuiteParams) -> tuple[list[dict], dict]:
    checks: list[dict] = []
    raw: dict = {}
    e = 0.95
    E = sp.dissipation_rate(e)

    claim_fr = "unscaled and rescaled frames agree after undoing the dilation"
    try:
        grid = sp.RadialGrid(*params.grid)
        T = params.frame_t_max
        phi0 = sp.CharacteristicProfile.bimaxwellian(grid, 0.5, 0.6, 1.4)
        tr_g = sp.evolve(phi0, e, params.solver(params.dt, T), diagnostics_schedule=[T])
        tr_f = sp.evolve(phi0, e, params.solver(params.dt, T, frame="unscaled-f"),
                         diagnostics_schedule=[T])
        fac = math.exp(E * T)
        x = grid.x[grid.x <= grid.x_max / fac * 0.98]
        diff = sp.evaluate(tr_g.final, x) - sp.evaluate(tr_f.final, x * fac)
        worst = float(np.max(np.abs(diff)))
        tol = 1e-6
        checks.append(_check("frame-agreement e=0.95", claim_fr, worst, tol,
                             tol - worst, worst <= tol))
    except Exception as exc:
        checks.append(_error_check("frame-agreement e=0.95", claim_fr, exc))

    claim_ecf = ("particle-system characteristic function matches the deterministic "
                 "profile within 3/sqrt(N) after rescaling")
    try:
        n_part = params.n_particles
        T = params.ecf_t_max
        targets = np.linspace(0.0, 10.0, 21)
        fac = math.exp(E * T)
        ens = dsmc.sample_initial("maxwellian", n_part, seed=3, e=e)
        # record only the endpoints; the check reads the last one, and at
        # N = 1e5 each ECF record costs less than a tenth of the whole run
        series = dsmc.run(ens, t_max=T, dt=params.dsmc_dt, x_grid=targets * fac,
                          record_every=int(round(T / params.dsmc_dt)))
        resc = dsmc.rescaled_estimates(series, e)
        ecf_vals = resc["ecf"][-1]
        phi_m = sp.CharacteristicProfile.maxwellian(sp.RadialGrid(*params.grid), 1.0)
        trace = sp.evolve(phi_m, e, params.solver(params.dt, T), diagnostics_schedule=[T])
        ref = sp.evaluate(trace.final, targets)
        worst = float(np.max(np.abs(ecf_vals - ref)))
        band = 3.0 / math.sqrt(n_part)
        checks.append(_check("dsmc-vs-spectral-ecf e=0.95", claim_ecf, worst, band,
                             band - worst, worst <= band,
                             t=T, n_particles=n_part))
        raw["ecf_comparison"] = {"x": targets.tolist(), "dsmc": ecf_vals.tolist(),
                                 "spectral": ref.tolist()}
    except Exception as exc:
        checks.append(_error_check("dsmc-vs-spectral-ecf e=0.95", claim_ecf, exc))
    return checks, raw


def _suite_sweep(ws: dict, params: SuiteParams) -> tuple[list[dict], dict]:
    checks: list[dict] = []
    raw: dict = {}
    claim_mono = "steady-state distance to the Maxwellian shrinks as e -> 1"
    claim_stab = ("fitted envelope constant stays within a factor 3 between "
                  "consecutive eps points")
    try:
        table = sweep_epsilon(params.sweep_eps,
                              config=params.solver(params.sweep_dt, params.sweep_t_max),
                              grid=sp.RadialGrid(*params.sweep_grid),
                              r_nodes=rs.default_r_nodes(*params.r_nodes),
                              tol=params.sweep_tol,
                              raise_on_failure=False)
        raw["sweep_table"] = {k: table[k] for k in
                              ("eps", "e", "l1", "envelope", "c_fit", "c_ratios",
                               "monotone", "c_stable", "c_growth_ok", "dropped",
                               "steps", "warnings")}
        l1 = np.array(table["l1"])
        worst_step = float(np.max(np.diff(l1))) if len(l1) >= 2 else math.nan
        checks.append(_check("sweep-monotone", claim_mono, worst_step, 0.0,
                             -worst_step, table["monotone"], l1=table["l1"]))
        ratios = np.array(table["c_ratios"])
        worst_ratio = float(np.max(np.maximum(ratios, 1.0 / ratios))) if len(ratios) else math.nan
        checks.append(_check("sweep-envelope-stability", claim_stab, worst_ratio,
                             3.0, 3.0 - worst_ratio, table["c_stable"],
                             c_fit=table["c_fit"], c_ratios=table["c_ratios"],
                             c_growth_ok=table["c_growth_ok"]))
    except Exception as exc:
        checks.append(_error_check("sweep", claim_mono, exc))
    return checks, raw


_SUITE_RUNNERS = {
    "kinematics": lambda ws, params: _suite_kinematics(params),
    "fisher": _suite_fisher,
    "weak-decay": _suite_weak_decay,
    "regularity": _suite_regularity,
    "inequalities": _suite_inequalities,
    "frame-consistency": _suite_frame_consistency,
    "sweep": _suite_sweep,
}


def verify(suite: str = "all", fast: bool = False, out_dir=None) -> dict:
    """Run one named verification suite (or all of them) and build a report.

    Sub-check failures and errors are recorded in the report and never abort
    the remaining checks. With `out_dir`, raw traces and tables are written
    beside the report data. `fast` runs the `FAST` table instead of `FULL`
    for smoke runs; the asserted laws are unchanged. The report's
    `provenance` stamp holds everything that shaped its numbers, and
    `config_sha256` is the hash of that stamp.
    """
    if suite != "all" and suite not in _SUITE_RUNNERS:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    fast = bool(fast)
    params = _params(fast)
    stamp, sha = _provenance(suite, fast)
    names = list(SUITES) if suite == "all" else [suite]
    t0 = time.perf_counter()
    ws: dict = {}
    checks: list[dict] = []
    raw_all: dict = {}
    suite_elapsed: dict[str, float] = {}
    for name in names:
        t1 = time.perf_counter()
        try:
            rows, raw = _SUITE_RUNNERS[name](ws, params)
        except Exception as exc:  # a suite-level crash is one errored check
            rows, raw = [_error_check(name, "suite execution", exc)], {}
        for r in rows:
            r["suite"] = name
        checks.extend(rows)
        raw_all.update(raw)
        suite_elapsed[name] = time.perf_counter() - t1
        logger.info("suite %s: %d checks in %.1f s", name, len(rows),
                    suite_elapsed[name])

    n_pass = sum(1 for c in checks if c["status"] == "pass")
    n_fail = sum(1 for c in checks if c["status"] == "fail")
    n_error = sum(1 for c in checks if c["status"] == "error")
    report = {
        "suite": suite, "fast": fast, "checks": checks,
        "n_pass": n_pass, "n_fail": n_fail, "n_error": n_error,
        "passed": n_fail == 0 and n_error == 0,
        "elapsed_seconds": time.perf_counter() - t0,
        "suite_elapsed": suite_elapsed,
        "provenance": stamp,
        "config_sha256": sha,
    }
    if "steady_e095" in ws:
        report["steady_e095_warnings"] = ws["steady_e095_warnings"]
    if "sweep_table" in raw_all:
        report["sweep_table"] = raw_all["sweep_table"]
    if "hcs_envelope" in raw_all:
        report["hcs_envelope"] = raw_all["hcs_envelope"]

    if out_dir is not None:
        try:
            report["artifacts"] = _write_suite_artifacts(out_dir, stamp, sha, ws, raw_all)
        except Exception as exc:
            logger.exception("artifact writing failed")
            report["artifact_error"] = repr(exc)
    return report


def _write_suite_artifacts(out_dir, stamp: dict, sha: str, ws: dict,
                           raw: dict) -> list[str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    comments = [f"provenance {_canonical(stamp)}", f"sha256 {sha}"]

    def emit_csv(name: str, save, *args) -> None:
        path = out / name
        save(path, *args)
        _insert_comments(path, comments)
        written.append(str(path))

    def emit_json(name: str, payload) -> None:
        path = out / name
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"provenance": stamp, "config_sha256": sha, "data": payload},
                      fh, indent=2)
        written.append(str(path))

    if "spectral_unscaled_trace" in raw:
        emit_csv("spectral-unscaled-e0.5.csv", save_trace,
                 raw["spectral_unscaled_trace"], 0.5, "unscaled-f")
    if "dsmc_series" in raw:
        emit_csv("dsmc-e0.5.csv", dsmc.save_series, raw["dsmc_series"])
    if "run_e095" in ws:
        emit_csv("spectral-rescaled-e0.95.csv", save_trace, ws["run_e095"],
                 0.95, "rescaled-g")
    if "steady_e095" in ws:
        emit_csv("steady-e0.95.csv", sp.save_profile, ws["steady_e095"],
                 0.95, "rescaled-g")
    if "sweep_table" in raw:
        emit_csv("sweep-eps.csv", _save_sweep_csv, raw["sweep_table"])
    if "mc_identities" in raw:
        emit_json("mc-identities.json", raw["mc_identities"])
    if "fisher_trajectory" in raw:
        emit_json("fisher-trajectory.json", raw["fisher_trajectory"])
    if "ecf_comparison" in raw:
        emit_json("frame-ecf.json", raw["ecf_comparison"])
    return written


def save_report(path, report: dict) -> None:
    """Write a verification report as indented JSON (provenance already embedded)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
