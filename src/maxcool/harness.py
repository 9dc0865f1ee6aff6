"""Experiment orchestration: rate fits, verification suites, sweeps, artifacts.

This module turns the library checks into runnable experiments. It owns the
exponential-rate fitter used by every decay check, the flat key=value
experiment configuration (CLI > file > defaults precedence, one stored
spelling per value), the named verification suites that aggregate
module-level assertions into a pass/fail report, and the small-inelasticity
steady-state sweep. The suites read their sizes, horizons, budgets and
tolerances from one declared table (`FULL`, or `FAST` for smoke runs); every
spectral run steps at `spectral.DT`, and the steady solves take no step.

Provenance: every artifact, of `verify` or of a CLI command, carries one
stamp, a dict of the inputs that shaped it plus the package versions, and
the SHA-256 of the stamp's canonical JSON text (sorted keys, no whitespace).
A verify stamp holds suite, fast, the table, the time step and the gain
quadrature order; a CLI stamp holds the command, the config fields it reads
and the inputs no field holds. CSV artifacts carry both as `# provenance`
and `# sha256` lines after the format header. All randomness is seeded;
results are deterministic given the stamp.

Report rows: each has a unique name, its claim, measured, bound, slack,
status and suite, plus an optional detail dict. slack is the signed margin,
bound - measured or, for a lower bound, measured - bound; status is "pass"
when slack >= 0 and "fail" otherwise, unless the check supplies its own
verdict. A report-only row has bound and slack None and passes. A check
that raises becomes an "error" row under its own name and claim, with
measured, bound and slack None and detail {"error": repr(exc)}; a suite
that raises keeps the rows and raw data it made, followed by one error row
named after the suite, claim "suite execution". `compare_reports` diffs two
reports row by row and value by value, and says whether they are the same
bits (or within a relative tolerance) with the same verdicts.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import glob
import hashlib
import json
import logging
import math
import os
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
    "embed_provenance",
    "save_trace",
    "density_corpus",
    "sweep_epsilon",
    "verify",
    "save_report",
    "compare_reports",
    "SUITES",
]

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
    """Every size, horizon, budget, tolerance and sample count of the suites.

    `FULL` sizes the reported battery and `FAST` the smoke runs; the asserted
    laws and their bounds are the same in both. Grids are `(n, x_max)` for
    `spectral.RadialGrid`, node sets `(r_max, n)` for
    `realspace.default_r_nodes`. Fields with defaults hold in both tables.
    Every spectral run steps at `spectral.DT` and the steady solves take no
    step, so the table holds no step;
    `dsmc_dt` is the step of the DSMC event stream. The whole table is stamped
    into every verify report and its hash.
    """

    grid: tuple[int, float]             # every suite run except the sweep
    n_particles: int                    # DSMC ensembles: weak-decay and frame-consistency
    run_t_max: float                    # tracked e=0.95 run; also ends the d2 fit window
    steady_tol: float                   # shared e=0.95 steady solve
    kin_triples: int
    mc_samples: int
    kernel_seeds: tuple[int, ...]
    fisher_t_max: float
    fisher_r_nodes: tuple[float, int]
    fisher_checks: int
    gain_es: tuple[float, ...]
    gain_entries: int | None            # leading corpus entries; None: all
    frame_t_max: float
    ecf_t_max: float
    corpus_grid: tuple[int, float]
    r_nodes: tuple[float, int]          # reconstructions of the corpus and the sweep
    corpus_t_max: float                 # evolved corpus entry
    corpus_tol: float                   # the corpus steady solve at e=0.9
    sweep_eps: tuple[float, ...]
    sweep_grid: tuple[int, float]
    sweep_tol: float
    decay_t_max: float = 10.0           # m2-rate runs, spectral and DSMC
    dsmc_dt: float = 0.01


FULL = SuiteParams(
    grid=(1024, 30.0), n_particles=100_000, run_t_max=40.0, steady_tol=1e-7,
    kin_triples=1_000_000, mc_samples=1_000_000, kernel_seeds=(11, 23, 47),
    fisher_t_max=20.0, fisher_r_nodes=(8.0, 1601), fisher_checks=9,
    gain_es=(0.8, 0.9, 0.99), gain_entries=None,
    frame_t_max=5.0, ecf_t_max=10.0,
    corpus_grid=(2048, 40.0), r_nodes=(10.0, 2001), corpus_t_max=5.0,
    corpus_tol=1e-6,
    sweep_eps=(0.1, 0.05, 0.02, 0.01), sweep_grid=(1024, 30.0), sweep_tol=1e-6,
)

FAST = SuiteParams(
    grid=(256, 20.0), n_particles=20_000, run_t_max=30.0, steady_tol=1e-5,
    kin_triples=10_000, mc_samples=50_000, kernel_seeds=(11,),
    fisher_t_max=4.0, fisher_r_nodes=(8.0, 801), fisher_checks=4,
    gain_es=(0.9,), gain_entries=2,
    frame_t_max=2.0, ecf_t_max=4.0,
    corpus_grid=(512, 24.0), r_nodes=(8.0, 1201), corpus_t_max=2.0,
    corpus_tol=1e-5,
    sweep_eps=(0.1, 0.02), sweep_grid=(512, 24.0), sweep_tol=1e-5,
)


# the exports of the OpenBLAS that numpy's wheels bundle in numpy.libs
_OPENBLAS_CORENAME = "scipy_openblas_get_corename64_"
_OPENBLAS_THREADS = "scipy_openblas_get_num_threads64_"


def _blas() -> dict | None:
    """numpy's OpenBLAS kernel and thread count, None where its library exports neither.

    Both change the rounding of BLAS sums (those of `realspace.reconstruct`,
    for one), so the same inputs can give other bits under another kernel
    (`OPENBLAS_CORETYPE`) or thread count (`OPENBLAS_NUM_THREADS`).
    """
    for path in sorted(glob.glob(os.path.join(np.__path__[0] + ".libs", "*openblas*"))):
        lib = ctypes.CDLL(path)  # the copy numpy loaded: one path, one handle
        corename = getattr(lib, _OPENBLAS_CORENAME, None)
        threads = getattr(lib, _OPENBLAS_THREADS, None)
        if corename is None and threads is None:
            continue
        if corename is not None:
            corename.restype = ctypes.c_char_p
            corename = corename().decode()
        if threads is not None:
            threads = int(threads())
        return {"corename": corename, "threads": threads}
    return None


def _stamp(fields: dict) -> tuple[dict, str]:
    """`fields` plus the package versions and the BLAS kernel (`_blas`), and
    the SHA-256 of its canonical JSON text."""
    import scipy  # noqa: PLC0415  (read only here, so `import maxcool` loads no scipy)

    stamp = {**fields, "versions": {"maxcool": __version__, "numpy": np.__version__,
                                    "scipy": scipy.__version__},
             "blas": _blas()}
    return stamp, hashlib.sha256(_canonical(stamp).encode("utf-8")).hexdigest()


def _provenance(suite: str, fast: bool) -> tuple[dict, str]:
    """The verify stamp and its hash."""
    return _stamp({"suite": suite, "fast": fast,
                   "table": dataclasses.asdict(FAST if fast else FULL), "dt": sp.DT,
                   "quad_order": sp.QUAD_ORDER})


def _canonical(stamp: dict) -> str:
    return json.dumps(stamp, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# experiment configuration

def _check_eps(eps) -> tuple[float, ...]:
    """The sweep's eps list as floats: nonempty, in (0, 0.25], strictly descending."""
    vals = tuple(float(v) for v in eps)
    if not vals:
        raise ValueError("eps list must be nonempty")
    for v in vals:
        if not (0.0 < v <= 0.25):
            raise ValueError(f"eps values must lie in (0, 0.25], got {v}")
    if any(a <= b for a, b in zip(vals, vals[1:])):
        raise ValueError("eps values must be strictly descending")
    return vals


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

    Unused fields are simply ignored by a given operation. Precedence when
    resolving is CLI flags > config file (flat key=value text) > these
    defaults. A frame is stored under its solver name and eps as the reprs
    of its floats, so two spellings of one run make one config.
    """

    e: float = 0.95
    grid_n: int = sp.DEFAULT_N
    x_max: float = sp.DEFAULT_XMAX
    dt: float = sp.DT
    t_max: float = 10.0
    init: str = "maxwellian"
    frame: str = "rescaled-g"
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
        self.frame = _FRAME_ALIASES[self.frame]  # one spelling per solver frame
        if self.suite not in SUITES + ("all",):
            raise ValueError(f"suite must be one of {SUITES + ('all',)}, got {self.suite!r}")
        dsmc.parse_initial_spec(self.init)  # validate early; raises on bad specs
        self.eps = ",".join(map(repr, self.eps_values()))  # one spelling per list

    def eps_values(self) -> tuple[float, ...]:
        try:
            vals = [float(s) for s in self.eps.split(",")]
        except ValueError:
            raise ValueError(f"eps must be comma-separated floats, got {self.eps!r}")
        return _check_eps(vals)

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


def embed_provenance(path, stamp: dict, sha: str) -> None:
    """Insert `# provenance <canonical JSON of stamp>` and `# sha256 <sha>`
    after line 1.

    The format header stays the first line, and a reader that skips "#"
    lines sees the same body as before.
    """
    p = Path(path)
    lines = p.read_text(encoding="utf-8").splitlines(keepends=True)
    if not lines:
        raise ValueError(f"cannot embed provenance in empty file {path}")
    block = f"# provenance {_canonical(stamp)}\n# sha256 {sha}\n"
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

_CORPUS_E = 0.9      # restitution of the corpus's evolved and steady entries


def density_corpus(params: SuiteParams) -> list[dict]:
    """Five representative isotropic states with matched profile/density pairs.

    Two closed-form Maxwellian mixtures plus a unit Maxwellian, one profile
    evolved in the rescaled frame, and the steady profile at e = 0.9, on the
    table's corpus grid. Densities for the evolved/steady entries are
    reconstructed on its `r_nodes`.
    """
    grid = sp.RadialGrid(*params.corpus_grid)
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
    evolved = sp.evolve(phi_a, _CORPUS_E, sp.SolverConfig(t_max=t_ev),
                        diagnostics_schedule=[t_ev]).final
    entries.append({"name": "evolved", "phi": evolved,
                    "f": rs.reconstruct(evolved, r_nodes)})
    steady = sp.steady_profile(_CORPUS_E, tol=params.corpus_tol, grid=grid)
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
    and its number of Newton steps, and a dropped entry the d2 size of its
    last Newton update.
    With `raise_on_failure` the checks raise AssertionError; the returned
    table always carries the full data and verdicts. The defaults are the
    `FULL` sweep suite's: its grid, nodes and tolerance. `config` reaches
    `spectral.steady_profile`, which reads only its `quad_order` and `frame`.

    Note: the envelope is an upper bound, and the measured distances fall
    faster than it (roughly like eps^2), so the two-sided factor-3 stability
    fails for eps ratios much above 2; `c_growth_ok` reports the one-sided
    reading (C never grows by more than 3x as eps decreases) separately.
    """
    eps = _check_eps(eps_list)
    if grid is None:
        grid = sp.RadialGrid(*FULL.sweep_grid)
    if r_nodes is None:
        r_nodes = rs.default_r_nodes(*FULL.r_nodes)

    rows: list[dict] = []
    dropped: list[dict] = []
    for ev in eps:
        e = 1.0 - 2.0 * ev
        phi, caught = _recording_warnings(sp.steady_profile, e, config, tol=tol,
                                          grid=grid)
        if not phi.meta.get("converged", False):
            dropped.append({"eps": ev, "e": e,
                            "last_update_d2": phi.meta["last_update_d2"],
                            "newton_steps": phi.meta["newton_steps"],
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
                     "newton_steps": phi.meta["newton_steps"],
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
        "newton_steps": [r["newton_steps"] for r in rows],
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

def _row(name: str, claim: str, measured, bound, holds=None, lower=False,
         **detail) -> dict:
    """One report row (see the module docstring); `holds` overrides slack >= 0."""
    slack = None
    if bound is not None:
        slack = measured - bound if lower else bound - measured
    if holds is None:
        holds = slack is None or slack >= 0
    row = {"name": name, "claim": claim, "measured": float(measured),
           "bound": None if bound is None else float(bound),
           "slack": None if slack is None else float(slack),
           "status": "pass" if holds else "fail"}
    if detail:
        row["detail"] = detail
    if not holds:
        logger.error("check failed: %r", row)
    return row


@contextlib.contextmanager
def _guard(rows: list[dict], claim: str, *names: str):
    """Turn an exception of the body into one error row per name in `rows`.

    Yields add(measured, bound, ...), which appends the `_row` of the first
    name and the guard's claim.
    """
    def add(measured, bound, **kw) -> None:
        rows.append(_row(names[0], claim, measured, bound, **kw))

    try:
        yield add
    except Exception as exc:  # propagate into the report, keep going
        logger.exception("check errored: %s", ", ".join(names))
        rows.extend({"name": name, "claim": claim, "measured": None, "bound": None,
                     "slack": None, "status": "error", "detail": {"error": repr(exc)}}
                    for name in names)


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


_EXACTNESS_BLOCK = 2 ** 15  # rows per block of the exactness checks


def _kinematics_exactness(e: float, n: int, seed: int) -> list[dict]:
    """Collision-law identities on n random triples (v, w, sigma) at one e.

    The triples are drawn all at once; the seven checks then run on blocks
    of _EXACTNESS_BLOCK rows and keep the largest value of each (a NaN is
    kept), so every row reads the same bits whatever the block size.
    """
    rng = kin.block_rng(seed, 900 + int(round(1000 * e)))
    v = rng.standard_normal((n, 3))
    w = rng.standard_normal((n, 3))
    sigma = kin.uniform_sphere(rng, n)
    scale = float(max(np.max(np.abs(v)), np.max(np.abs(w))))

    checks = (  # (name, claim, bound), in the order of the block maxima
        ("swap-momentum", "pair momentum is unchanged by the collision map", 1e-10),
        ("swap-energy",
         "kinetic energy drops by (1-e^2)/2 times the squared normal velocity", 1e-8),
        ("swap-roundtrip", "inverse collision map restores the pair exactly", 1e-8),
        ("reflect-roundtrip", "inverse reflection map restores the pair exactly", 1e-8),
        ("param-consistency", "direction-exchange and reflection parameterizations agree",
         1e-8 * max(1.0, scale)),
        ("jacobian", "volume contraction of the collision map equals e", 1e-6),
        ("z-identity", "the Z combination of eta+ and eta- equals its closed form", 1e-10),
    )

    def top(*diffs):  # largest |entry|, 0 over no rows
        return np.max([np.max(np.abs(d), initial=0.0) for d in diffs])

    worst = np.zeros(len(checks))
    basis = np.eye(6)[:, None, :]
    for lo in range(0, n, _EXACTNESS_BLOCK):
        vb, wb, sb = (x[lo:lo + _EXACTNESS_BLOCK] for x in (v, w, sigma))
        vp, wp, sigmap, _ = kin.swap_forward(vb, wb, sb, e)
        vi, wi, si, _ = kin.swap_inverse(vp, wp, sigmap, e)

        # energy law in the reflection frame: n = (k - sigma)/|k - sigma|
        u, unorm = kin._rel(vb, wb)
        nvec = u / unorm - sb
        nn = np.sqrt(kin._dot(nvec, nvec))
        ok = nn > 1e-12  # sigma parallel to k leaves the impact direction undefined
        nvec = nvec[ok] / nn[ok, None]
        un = kin._dot(u[ok], nvec)
        de = kin._dot(vp, vp) + kin._dot(wp, wp) - kin._dot(vb, vb) - kin._dot(wb, wb)

        # reflection picture on the converted normals, forward then inverse
        vo, wo = vb[ok], wb[ok]
        vr, wr = kin.reflect(vo, wo, nvec, 0.5 * (1.0 + e))
        vrb, wrb = kin.reflect(vr, wr, nvec, (1.0 + e) / (2.0 * e))

        # Jacobian of the 6-dim reflection map has |det| = e. At fixed n the
        # coded map is linear in (v, w), so column j of J is the map applied
        # to the j-th unit vector of R^6: one call maps all six.
        cols = np.concatenate(kin.reflect(basis[..., :3], basis[..., 3:], nvec,
                                          0.5 * (1.0 + e)), axis=-1)
        dets = np.abs(np.linalg.det(np.moveaxis(cols, 0, -1)))

        worst = np.maximum(worst, [
            top((vp + wp) - (vb + wb)),
            top(de[ok] + 0.5 * (1.0 - e * e) * un * un),
            top(vi - vb, wi - wb, si - sb),
            top(vrb - vo, wrb - wo),
            top(vr - vp[ok], wr - wp[ok]),
            top(dets - e),
            # the vector identity behind the Fisher gain bound, at eta = v - w
            top(kin.z_identity_residual(u, sb, e)[:, None] / unorm),
        ])
    return [_row(f"{name} e={e:g}", claim, x, bound)
            for (name, claim, bound), x in zip(checks, worst)]


def _suite_kinematics(ws: dict, params: SuiteParams, rows: list[dict],
                      raw: dict) -> None:
    for e in _KIN_ES:
        with _guard(rows, "collision-law identities", f"exactness e={e:g}"):
            rows.extend(_kinematics_exactness(e, params.kin_triples, seed=2))
    mc_log = raw["mc_identities"] = []
    claim = "gain-side change of variables leaves the collision average invariant"
    cases = [(ks, e, which) for ks in params.kernel_seeds for e in _MC_ES
             for which in ("sigma-theorem", "n-theorem")]
    kernels = {ks: _gaussian_kernel(ks) for ks in params.kernel_seeds}
    # one shared sample stream; each row re-raises its own job's failure
    try:
        results = kin._mc_identities([(kernels[ks], e, which) for ks, e, which in cases],
                                     params.mc_samples, seed=7)
    except Exception as exc:
        results = [exc] * len(cases)
    for (ks, e, which), result in zip(cases, results):
        name = f"mc-{which} kernel={ks} e={e:g}"
        with _guard(rows, claim, name) as add:
            if isinstance(result, Exception):
                raise result
            lhs, rhs, sl, sr = result
            sig = math.hypot(sl, sr)
            z = abs(lhs - rhs) / sig
            add(z, 3.0, lhs=lhs, rhs=rhs, stderr=sig)
            mc_log.append({"name": name, "lhs": lhs, "rhs": rhs, "stderr": sig, "z": z})


def _ws_steady(ws: dict, params: SuiteParams) -> sp.CharacteristicProfile:
    if "steady_e095" not in ws:
        ws["steady_e095"], ws["steady_e095_warnings"] = _recording_warnings(
            sp.steady_profile, 0.95, tol=params.steady_tol, grid=sp.RadialGrid(*params.grid))
    return ws["steady_e095"]


def _ws_run(ws: dict, params: SuiteParams) -> sp.EvolutionTrace:
    # rescaled-frame tracked run used by the decay, regularity, and distance
    # checks; a failed run is kept and re-raised, never evolved a second time
    if "run_e095_error" in ws:
        raise ws["run_e095_error"]
    if "run_e095" not in ws:
        steady = _ws_steady(ws, params)
        phi0 = sp.CharacteristicProfile.bimaxwellian(steady.grid, 0.5, 0.6, 1.4)
        try:
            ws["run_e095"] = sp.evolve(phi0, 0.95, sp.SolverConfig(t_max=params.run_t_max),
                                       reference=steady)
        except Exception as exc:
            ws["run_e095_error"] = exc
            raise
    return ws["run_e095"]


def _ws_corpus(ws: dict, params: SuiteParams) -> list[dict]:
    if "corpus" not in ws:
        ws["corpus"] = density_corpus(params)
    return ws["corpus"]


def _suite_fisher(ws: dict, params: SuiteParams, rows: list[dict],
                  raw: dict) -> None:
    with _guard(rows, "Fisher information along the rescaled flow stays under "
                "exp((growth - 2E) t) times its initial value",
                "fisher-trajectory e=0.95") as add:
        phi0 = sp.CharacteristicProfile.bimaxwellian(sp.RadialGrid(*params.grid),
                                                     0.5, 0.6, 1.4)
        r_nodes = rs.default_r_nodes(*params.fisher_r_nodes)
        config = sp.SolverConfig(t_max=params.fisher_t_max)
        rep = rs.fisher_trajectory_check(phi0, 0.95, config, r_nodes=r_nodes,
                                         n_checks=params.fisher_checks)
        add(float(np.min(np.array(rep["bounds"]) - np.array(rep["fisher"]))), 0.0,
            lower=True)
        raw["fisher_trajectory"] = rep

    claim = "one application of the gain grows Fisher information by at most 1+growth"
    corpus = _ws_corpus(ws, params)
    for entry in corpus[:params.gain_entries]:
        names = [f"fisher-gain {entry['name']} e={e:g}" for e in params.gain_es]
        with _guard(rows, claim, *names):
            f = rs.reconstruct(entry["phi"], entry["f"].r)  # shared by every e
            for e, name in zip(params.gain_es, names):
                with _guard(rows, claim, name) as add:
                    rep = rs.fisher_gain_check(entry["phi"], e, f=f)
                    add(rep["ratio"], rep["bound_factor"], holds=rep["holds"])

    # scale invariance of the frequency-sup / Fisher ratio (dilations move
    # numerator and denominator together; no sharp constant is asserted)
    with _guard(rows, "sup_x x|phi| / sqrt(I(f)) is invariant under dilations",
                "fourier-sup-fisher scale-invariance") as add:
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
        add(rel, 5e-3, ratios=[base, dil, mix, mix_d])


def _suite_weak_decay(ws: dict, params: SuiteParams, rows: list[dict],
                      raw: dict) -> None:
    target = 2.0 * sp.dissipation_rate(0.5)

    with _guard(rows, "temperature decays at rate 2E = (1-e^2)/4 in the unscaled frame",
                "spectral-m2-rate e=0.5") as add:
        phi0 = sp.CharacteristicProfile.maxwellian(sp.RadialGrid(*params.grid), 1.0)
        trace = sp.evolve(phi0, 0.5, sp.SolverConfig(t_max=params.decay_t_max,
                                                     frame="unscaled-f"))
        fit = fit_exponential_rate((trace.times, trace.diagnostics["m2"]))
        add(abs(fit.rate - target) / target, 5e-3,
            rate=fit.rate, target=target, r_squared=fit.r_squared)
        raw["spectral_unscaled_trace"] = trace

    with _guard(rows, "particle-system energy decays at rate 2E = 0.1875 at e = 0.5",
                "dsmc-m2-rate e=0.5") as add:
        ens = dsmc.sample_initial("maxwellian", params.n_particles, seed=1, e=0.5)
        series = dsmc.run(ens, t_max=params.decay_t_max, dt=params.dsmc_dt)
        fit = fit_exponential_rate((series["t"], series["m2"]))
        add(abs(fit.rate - target) / target, 0.02,
            rate=fit.rate, target=target, r_squared=fit.r_squared)
        raw["dsmc_series"] = series

    with _guard(rows, "weak distance to the steady profile decays at least at rate "
                "0.9*gamma", "d2-decay-rate e=0.95") as add:
        trace = _ws_run(ws, params)
        d2_ref = trace.diagnostics["d2_ref"]
        fit = fit_exponential_rate((trace.times, d2_ref),
                                   window=(10.0, params.run_t_max))
        gamma = sp.gamma_constants(0.9, 0.95)[1]
        # the fit reads the decay only while d2_ref stays well above the
        # reference's own error: record both at the ends of the window
        ends = np.searchsorted(trace.times, fit.window)
        add(fit.rate, 0.9 * gamma, lower=True,
            gamma=gamma, r_squared=fit.r_squared,
            ref_last_update_d2=_ws_steady(ws, params).meta["last_update_d2"],
            d2_ref_ends=d2_ref[ends].tolist())


def _suite_regularity(ws: dict, params: SuiteParams, rows: list[dict],
                      raw: dict) -> None:
    steady = _ws_steady(ws, params)
    # the run's regularity diagnostics, as `evolve` records them
    steady_vals = {f"sup_{sp._SUP_DELTA:g}": sp.sup_weighted(steady, sp._SUP_DELTA)}
    steady_vals.update({f"hr_{r:g}": sp.sobolev_norm(steady, r) for r in sp._SOBOLEV_ORDERS})
    for key, at_steady in steady_vals.items():
        with _guard(rows, f"{key} stays within 5% of max(initial, steady) along the run",
                    f"regularity-{key} e=0.95") as add:
            series = _ws_run(ws, params).diagnostics[key]
            add(float(np.max(series)), 1.05 * max(float(series[0]), at_steady),
                initial=float(series[0]), steady=at_steady)

    # qualitative two-sided envelope of the steady profile: logged, not scored
    rep = steady.meta["envelope"]
    rows.append(_row("hcs-envelope-report e=0.95",
                     "steady profile sits between the Gaussian and exp(-x)(1+x) envelopes",
                     max(rep["max_lower_violation"], rep["max_upper_violation"]), None,
                     **rep))
    logger.info("hcs envelope report: %r", rep)
    raw["hcs_envelope"] = rep


def _suite_inequalities(ws: dict, params: SuiteParams, rows: list[dict],
                        raw: dict) -> None:
    for entry in _ws_corpus(ws, params):
        with _guard(rows, "Nash, interpolation, and moment-to-mass inequalities hold "
                    "with positive slack", f"inequalities {entry['name']}") as add:
            rep = rs.inequality_suite(entry["phi"], entry["f"])
            worst = float(np.min([c["slack"] for c in rep["checks"]]))
            add(worst, 0.0, holds=worst > 0.0, lower=True, n_checks=rep["n_checks"])


def _suite_frame_consistency(ws: dict, params: SuiteParams, rows: list[dict],
                             raw: dict) -> None:
    e = 0.95
    E = sp.dissipation_rate(e)

    with _guard(rows, "unscaled and rescaled frames agree after undoing the dilation",
                "frame-agreement e=0.95") as add:
        grid = sp.RadialGrid(*params.grid)
        T = params.frame_t_max
        phi0 = sp.CharacteristicProfile.bimaxwellian(grid, 0.5, 0.6, 1.4)
        tr_g = sp.evolve(phi0, e, sp.SolverConfig(t_max=T), diagnostics_schedule=[T])
        tr_f = sp.evolve(phi0, e, sp.SolverConfig(t_max=T, frame="unscaled-f"),
                         diagnostics_schedule=[T])
        fac = math.exp(E * T)
        x = grid.x[grid.x <= grid.x_max / fac * 0.98]
        diff = sp.evaluate(tr_g.final, x) - sp.evaluate(tr_f.final, x * fac)
        add(float(np.max(np.abs(diff))), 1e-6)

    with _guard(rows, "particle-system characteristic function matches the "
                "deterministic profile within 3/sqrt(N) after rescaling",
                "dsmc-vs-spectral-ecf e=0.95") as add:
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
        trace = sp.evolve(phi_m, e, sp.SolverConfig(t_max=T), diagnostics_schedule=[T])
        ref = sp.evaluate(trace.final, targets)
        add(float(np.max(np.abs(ecf_vals - ref))), 3.0 / math.sqrt(n_part),
            t=T, n_particles=n_part)
        raw["ecf_comparison"] = {"x": targets.tolist(), "dsmc": ecf_vals.tolist(),
                                 "spectral": ref.tolist()}


def _suite_sweep(ws: dict, params: SuiteParams, rows: list[dict],
                 raw: dict) -> None:
    claim = "steady-state distance to the Maxwellian shrinks as e -> 1"
    with _guard(rows, claim, "sweep"):
        table = sweep_epsilon(params.sweep_eps,
                              grid=sp.RadialGrid(*params.sweep_grid),
                              r_nodes=rs.default_r_nodes(*params.r_nodes),
                              tol=params.sweep_tol,
                              raise_on_failure=False)
        raw["sweep_table"] = {k: table[k] for k in
                              ("eps", "e", "l1", "envelope", "c_fit", "c_ratios",
                               "monotone", "c_stable", "c_growth_ok", "dropped",
                               "newton_steps", "warnings")}
        l1 = np.array(table["l1"])
        worst_step = float(np.max(np.diff(l1))) if len(l1) >= 2 else math.nan
        rows.append(_row("sweep-monotone", claim, worst_step, 0.0,
                         holds=table["monotone"], l1=table["l1"]))
        ratios = np.array(table["c_ratios"])
        worst_ratio = float(np.max(np.maximum(ratios, 1.0 / ratios))) if len(ratios) else math.nan
        rows.append(_row("sweep-envelope-stability",
                         "fitted envelope constant stays within a factor 3 between "
                         "consecutive eps points", worst_ratio, 3.0,
                         holds=table["c_stable"], c_fit=table["c_fit"],
                         c_ratios=table["c_ratios"], c_growth_ok=table["c_growth_ok"]))


_SUITE_RUNNERS = {
    "kinematics": _suite_kinematics,
    "fisher": _suite_fisher,
    "weak-decay": _suite_weak_decay,
    "regularity": _suite_regularity,
    "inequalities": _suite_inequalities,
    "frame-consistency": _suite_frame_consistency,
    "sweep": _suite_sweep,
}
SUITES = tuple(_SUITE_RUNNERS)


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
    params = FAST if fast else FULL
    stamp, sha = _provenance(suite, fast)
    names = list(SUITES) if suite == "all" else [suite]
    t0 = time.perf_counter()
    ws: dict = {}
    checks: list[dict] = []
    raw: dict = {}
    suite_elapsed: dict[str, float] = {}
    for name in names:
        t1 = time.perf_counter()
        rows: list[dict] = []
        # a crash is one error row after the rows the suite already made
        with _guard(rows, "suite execution", name):
            _SUITE_RUNNERS[name](ws, params, rows, raw)
        for r in rows:
            r["suite"] = name
        checks.extend(rows)
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
    if "sweep_table" in raw:
        report["sweep_table"] = raw["sweep_table"]
    if "hcs_envelope" in raw:
        report["hcs_envelope"] = raw["hcs_envelope"]

    if out_dir is not None:
        try:
            report["artifacts"] = _write_suite_artifacts(out_dir, stamp, sha, ws, raw)
        except Exception as exc:
            logger.exception("artifact writing failed")
            report["artifact_error"] = repr(exc)
    return report


def _write_suite_artifacts(out_dir, stamp: dict, sha: str, ws: dict,
                           raw: dict) -> list[str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    def emit_csv(name: str, save, *args) -> None:
        path = out / name
        save(path, *args)
        embed_provenance(path, stamp, sha)
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


# ---------------------------------------------------------------------------
# report comparison

# the report keys that `compare_reports` does not compare leaf by leaf: the
# rows (matched by name), the timings and the stamp (reported only), and the
# artifact paths (where the files went)
_NOT_LEAVES = ("checks", "elapsed_seconds", "suite_elapsed", "provenance",
               "config_sha256", "artifacts")


def _leaves(obj, path: str = "") -> dict:
    """{path: value} for every leaf of nested dicts and lists."""
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in obj.items())
    elif isinstance(obj, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return {path: obj}
    return {p: leaf for key, v in items for p, leaf in _leaves(v, key).items()}


def _hex(v) -> str | None:
    return float(v).hex() if isinstance(v, (int, float)) and not isinstance(v, bool) else None


def _moves(old: dict, new: dict, rtol: float, row=None, bound=None) -> list[dict]:
    """The leaves of `old` and `new` (as `_leaves` gives) that differ.

    Two numbers differ unless they hold the same bits, which `float.hex`
    shows, and it writes every NaN as "nan", so NaN equals NaN. A move between
    them is beyond rtol unless rtol > 0 and |new - old| <= rtol |old|.
    Any other leaf, or one on one side only (None on the other), differs
    when it is not equal and of the same type, and is beyond any rtol.
    """
    out = []
    for path in {**old, **new}:
        a, b = old.get(path), new.get(path)
        ha, hb = _hex(a), _hex(b)
        if ha is not None and hb is not None:
            if ha == hb:
                continue
            rel = abs(float(b) - float(a)) / abs(float(a)) if float(a) else math.inf
            beyond = not (rtol > 0 and rel <= rtol)
        elif a == b and type(a) is type(b) and path in old and path in new:
            continue
        else:
            rel, beyond = None, True
        out.append({"row": row, "field": path, "old": a, "new": b, "old_hex": ha,
                    "new_hex": hb, "rel": rel, "bound": bound, "beyond": beyond})
    return out


def compare_reports(old: dict, new: dict, rtol: float = 0.0) -> dict:
    """What moved between two `verify` reports, and whether they are equivalent.

    Rows are matched by name. The diff holds:
    - `verdicts`: the rows whose status changed, old -> new;
    - `added` and `missing`: the names of the rows only in new or only in old;
    - `moves`: each leaf that differs (`_moves`) among the rows' fields
      (measured, bound, slack, claim, the leaves of detail) and the report's
      other keys (the sweep table, say), with both values and their
      float.hex, the relative move |new - old|/|old|, the row's bound and
      whether the move is beyond rtol; `compared` counts the leaves;
    - `provenance`: the stamp fields that differ (BLAS kernel and threads,
      versions, table), and `config_sha256` old -> new if it differs;
    - `suite_elapsed`: each suite's time, old -> new.
    The reports are `equivalent` when no verdict changed, no row was added
    or is missing and no move is beyond rtol. rtol = 0, the default, asks
    for the same bits everywhere. Timings and the stamp never make reports
    inequivalent: another BLAS kernel or thread count may round sums
    otherwise, and the stamp fields that differ say so.
    """
    if not rtol >= 0.0:
        raise ValueError(f"rtol must be nonnegative, got {rtol}")
    old_rows = {c["name"]: c for c in old["checks"]}
    new_rows = {c["name"]: c for c in new["checks"]}
    verdicts, moves, compared = [], [], 0
    for name in [n for n in old_rows if n in new_rows]:
        a, b = old_rows[name], new_rows[name]
        if a["status"] != b["status"]:
            verdicts.append({"row": name, "suite": b.get("suite"),
                             "old": a["status"], "new": b["status"]})
        la, lb = (_leaves({k: v for k, v in r.items() if k not in ("name", "status")})
                  for r in (a, b))
        compared += len({**la, **lb})
        moves += _moves(la, lb, rtol, name, b["bound"])
    la, lb = (_leaves({k: v for k, v in r.items() if k not in _NOT_LEAVES})
              for r in (old, new))
    compared += len({**la, **lb})
    moves += _moves(la, lb, rtol)
    stamp = _moves(_leaves(old.get("provenance", {})), _leaves(new.get("provenance", {})), 0.0)
    elapsed = [old.get("suite_elapsed", {}), new.get("suite_elapsed", {})]
    added = [n for n in new_rows if n not in old_rows]
    missing = [n for n in old_rows if n not in new_rows]
    return {
        "rows": [len(old_rows), len(new_rows)],
        "verdicts": verdicts,
        "added": added,
        "missing": missing,
        "moves": moves,
        "compared": compared,
        "provenance": [{k: m[k] for k in ("field", "old", "new")} for m in stamp],
        "config_sha256": (None if old.get("config_sha256") == new.get("config_sha256")
                          else [old.get("config_sha256"), new.get("config_sha256")]),
        "suite_elapsed": {k: [elapsed[0].get(k), elapsed[1].get(k)]
                          for k in {**elapsed[0], **elapsed[1]}},
        "equivalent": not (verdicts or added or missing
                           or any(m["beyond"] for m in moves)),
    }
