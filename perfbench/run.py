"""Benchmark entry point: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0

Runs whole rounds of the workload until --seconds have elapsed (at least
one), checks every operation's output, and prints the end-to-end metrics
(--trace 0) or the per-layer metrics of a traced run (--trace 1) as the last
line of standard output. Untraced rounds are measured against a reference
kernel run in blocks through the round (reference.py). Result and trace
files go to perfbench/results/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time as clock

THREADS = "1"  # BLAS and OpenMP pool size, at most nproc on every host
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS  # before numpy is imported; children inherit it

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # this process plus four fresh set-up processes


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["steady", "trajectory", "particles"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time the workload's set-up and print it")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def setup_probe_times(args, count: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def per_layer(stats, rounds: int, warned, notes, mc_samples: int, cpus) -> dict:
    steps = ("spectral.step.rescaled", "spectral.step.unscaled")
    solves = stats.calls["spectral.steady_profile"]
    collisions = notes.get("collisions", 0)
    run_time = stats.total["dsmc.run"] / rounds
    mc_time = stats.mean_total("kinematics.mc_change_of_variables")
    return {
        "spectral.step.calls": sum(stats.calls[n] for n in steps) / rounds,
        "spectral.steady_profile.steps":
            sum(stats.nested[("spectral.steady_profile", n)] for n in steps) / solves
            if solves else 0.0,
        "spectral.step.rescaled_ms": 1e3 * stats.mean_self("spectral.step.rescaled"),
        "spectral.step.unscaled_ms": 1e3 * stats.mean_self("spectral.step.unscaled"),
        "spectral.steady_profile.s": stats.mean_total("spectral.steady_profile"),
        "spectral.diagnostics.ms": 1e3 * stats.mean_self(
            "spectral.moment", "spectral.sobolev_norm", "spectral.sup_weighted",
            "spectral.d2_distance"),
        "spectral.evaluate.ms": 1e3 * stats.mean_self("spectral.evaluate"),
        "spectral.step.retries": warned["dt_halving"] / rounds,
        "spectral.moment.widenings": warned["stencil_widening"] / rounds,
        "realspace.reconstruct.calls": stats.calls["realspace.reconstruct"] / rounds,
        "realspace.reconstruct.ms": 1e3 * stats.mean_self("realspace.reconstruct"),
        "realspace.fisher_information.ms": 1e3 * stats.mean_self("realspace.fisher_information"),
        "dsmc.collisions": collisions,
        "dsmc.run.s": run_time,
        "dsmc.run.ns_per_collision": 1e9 * run_time / collisions if collisions else 0.0,
        "dsmc.ecf.calls": stats.calls["dsmc.ecf"] / rounds,
        "dsmc.ecf.s": stats.mean_total("dsmc.ecf"),
        "kinematics.mc_change_of_variables.s": mc_time,
        # each identity draws mc_samples for its left and for its right side
        "kinematics.mc.ns_per_sample": 1e9 * mc_time / (2 * mc_samples),
        "harness.sweep_epsilon.self_s": stats.self_time["harness.sweep_epsilon"] / rounds,
        "trace.round_cpu_s": statistics.median(cpus),
    }


def as_metrics(values: dict, section: str) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match it."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match "
                           f"the {section} list of BENCHMARK.json")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "maxcool" / "__init__.py").is_file():
        print(f"error: no maxcool sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import maxcool  # noqa: PLC0415

    if Path(maxcool.__file__).resolve().parent != SRC / "maxcool":
        print(f"error: imported maxcool from {maxcool.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads  # noqa: PLC0415
    from reference import Reference  # noqa: PLC0415
    from spans import SpanStats, Tracer  # noqa: PLC0415

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        workload.setup()
        print(json.dumps({"setup_s": clock()}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        for module, attr in workloads.TRACED:
            tracer.wrap(module, attr, count_warnings=attr in workloads.COUNT_WARNINGS,
                        name=workloads.step_span_name if attr == "step" else None)
        tracer.phase("setup")
    ops = workloads.Ops()
    setup_ops = workloads.Ops()
    _, err = setup_ops.call(workload.setup)
    if err:
        print(f"error: set-up failed: {err}", file=sys.stderr)
        return 1
    setup_s = [clock()]  # CPU time since the process started
    reference = None
    if not args.trace:
        setup_s += setup_probe_times(args, SETUP_SAMPLES - 1)
        reference = Reference(**workload.REFERENCE)
        for module, attr in workloads.PACED:
            reference.wrap(module, attr)

    cpus, walls, blocks = [], [], []
    t0 = perf_counter()
    while not walls or perf_counter() - t0 < args.seconds:
        if tracer:
            tracer.phase(f"round-{len(walls)}")
        if reference:
            reference.reset()
        t, c = perf_counter(), clock()
        workload.round(ops)
        if reference:
            reference.tick()
            if not reference.blocks:
                reference.block()
        cpus.append(clock() - c - (reference.spent if reference else 0.0))
        walls.append(perf_counter() - t)
        if reference:
            blocks.append(reference.units(cpus[-1]))
    if reference:
        reference.restore()

    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.phase("extras")
        extras, err = setup_ops.call(workload.traced_extras)
        tracer.restore()
        if err:
            print(f"error: traced extras failed: {err}", file=sys.stderr)
            return 1
        rounds = [k for k in tracer.phases if k.startswith("round-")]
        stats = SpanStats(tracer.phases[k] for k in rounds)
        warned = sum((tracer.phase_warnings[k] for k in rounds), Counter())
        values = per_layer(stats, len(walls), warned, workload.notes,
                           workloads.Particles.MC_SAMPLES, cpus)
        values.update({"spectral.gain_fourier.ms": 0.0, "spectral.plan_build.ms": 0.0})
        values.update(extras)
        values["dsmc.sample_initial.s"] = SpanStats(
            [tracer.phases["setup"]]).mean_total("dsmc.sample_initial")
        metrics = as_metrics(values, "per_layer")
        tracer.write(results_dir / f"{stem}-spans.json")
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        metrics = as_metrics({
            "setup_s": statistics.median(setup_s),
            "round_blocks": statistics.median(blocks),
            "peak_rss_mb": (peak - reference.nbytes) / 2 ** 20,
        }, "end_to_end")

    for problem in ops.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    notes = {k: (statistics.median(v) if isinstance(v, list) else v)
             for k, v in workload.notes.items()}
    ref = (f"{statistics.median(blocks):.1f} reference blocks of "
           f"{1e3 * reference.spent / reference.blocks:.2f} ms, " if reference else "")
    print(f"{args.workload}: {len(walls)} round(s) of {statistics.median(cpus):.3f} s CPU, "
          f"{ref}{statistics.median(walls):.3f} s wall, "
          f"{ops.attempted} operations, {ops.failed} failed, "
          f"warnings {dict(ops.warnings)}, setup samples {[round(s, 3) for s in setup_s]}")
    if notes:
        print(f"{args.workload}: {json.dumps(notes)}")
    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": metrics}
    with open(results_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "round_cpu_s": cpus, "round_wall_s": walls,
                   "round_blocks": blocks,
                   "setup_samples": setup_s,
                   "warnings": dict(ops.warnings), "problems": ops.problems,
                   "notes": notes}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
