"""Benchmark of the bandlayer CLI: end-to-end times, or per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload exact-desk --seed 0 --seconds 20 \
        --trace 0

The commands of the workload (see workloads.py) are driven in-process
through ``bandlayer.cli.main``, one after another, from one
single-threaded process.  A run is: set-up timed in fresh interpreters,
one untimed warm-up pass on tiny grids, then timed passes until
``--seconds`` have been spent.  Every command's output is checked by its
witness.

With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` the timed passes alternate untraced and traced, and the
per-layer metrics are reported from the traced ones.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Exit code 2 means the harness could not run (no
``src/bandlayer`` next to it, bad arguments).
"""

from __future__ import annotations

import os

# one single-threaded process drives the load; set before numpy loads BLAS
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

import workloads  # noqa: E402
from spans import DERIVED, HOOKS, Hooks, Tracer  # noqa: E402

SETUP_REPEATS = 5
SETUP_SNIPPET = ("import sys, bandlayer.cli\n"
                 "from bandlayer.config import load_config\n"
                 "load_config(sys.argv[1])\n")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("pass_rate", "ratio"))
# the spans whose time inside the hjb command is "covered"
HJB_COVER = ("hjb.factor", "hjb.assemble", "hjb.lu_solve", "output.write_csv")
PER_LAYER = (
    [(f"band_zero.{f}.{k}", "s" if k == "s" else "count")
     for f in ("solve_homogeneous", "greens_particular", "find_band_zero",
               "newton_level", "polish_node", "level_state")
     for k in ("s", "calls")]
    + [("asymptotics.layer_profile_airy.s", "s"),
       ("special.airy_log_derivative.calls", "count"),
       ("asymptotics.abel_layer_solve.s", "s"),
       ("asymptotics.layer_constants.s", "s"),
       ("hjb.solve_hjb.s", "s"), ("hjb.solve_hjb.calls", "count"),
       ("hjb.policy_iterations", "count")]
    + [(f"hjb.{f}.{k}", "s" if k == "s" else "count")
       for f in ("factor", "lu_solve", "assemble") for k in ("s", "calls")]
    + [("hjb.hamiltonian.s", "s"), ("hjb.extract_band.s", "s"),
       ("hjb.lu_fill_nnz", "count"),
       ("experiments.eta_shift_sweep.self_s", "s"),
       ("output.write_csv.s", "s"), ("output.bytes_written", "bytes"),
       ("config.load_config.s", "s")]
    + [(f"{label}_s", "s") for label in workloads.LABELS]
    + [("hjb_uncovered_s", "s"), ("trace.overhead_s", "s"),
       ("trace.hook_calls", "count")])
# per-layer metrics not named after the span they come from
SOURCE_SPAN = {"hjb.lu_fill_nnz": "hjb.factor",
               "hjb.policy_iterations": "hjb.solve_hjb"}
ABSENT = -1.0   # value of a per-layer metric whose hook target is missing


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_cli():
    """Import bandlayer.cli from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "bandlayer", "cli.py")):
        fail(f"no src/bandlayer/cli.py under {ROOT}; run from a checkout")
    sys.path.insert(0, SRC)
    import bandlayer.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        fail(f"bandlayer imported from {cli.__file__}, not {SRC}")
    return cli


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "cpu": cpu,
            "nproc": os.cpu_count(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def measure_setup(config_path: str, repeats: int) -> list[float]:
    """Seconds from a fresh interpreter to bandlayer.cli imported and the
    config loaded, once per repeat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET,
                               config_path], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up failed: {proc.stderr.strip()}")
    return times


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_pass(cli, cmds, configs, tracer=None) -> dict:
    """Run every command once; time it, then check its witness."""
    result = {"seconds": {}, "witness": {}, "bytes": 0, "hjb_covered": None}
    for cmd in cmds:
        out = os.path.join(WORK, cmd.label)
        shutil.rmtree(out, ignore_errors=True)
        before = dict(tracer.inclusive) if tracer else None
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(buf):
                rc = cli.main([cmd.subcommand, "--config", configs[cmd.label],
                               "--out", out])
        except (Exception, SystemExit) as exc:
            rc = f"raised {type(exc).__name__}: {exc}"
        result["seconds"][cmd.label] = time.perf_counter() - t0
        if rc != 0:
            verdict = (False, f"exit {rc}: {buf.getvalue().strip()[-300:]}",
                       {})
        else:
            try:
                verdict = cmd.witness(out, buf.getvalue())
            except Exception as exc:
                verdict = (False, f"witness unreadable: {exc!r}", {})
        result["witness"][cmd.label] = verdict
        result["bytes"] += _dir_bytes(out) if os.path.isdir(out) else 0
        if tracer and cmd.label == "hjb":
            result["hjb_covered"] = sum(
                tracer.inclusive.get(s, 0.0) - before.get(s, 0.0)
                for s in HJB_COVER)
    result["wall"] = sum(result["seconds"].values())
    return result


def layer_metrics(p: dict, tracer: Tracer, absent: list) -> dict:
    """Per-layer values of one traced pass, before the median over passes."""
    m = {}
    for span in list(HOOKS) + list(DERIVED):
        m[f"{span}.s"] = tracer.inclusive.get(span, 0.0)
        m[f"{span}.calls"] = tracer.calls.get(span, 0)
        m[f"{span}.self_s"] = tracer.self_s.get(span, 0.0)
    m["hjb.policy_iterations"] = tracer.policy_iterations
    lu = tracer.last_lu
    m["hjb.lu_fill_nnz"] = int(lu.L.nnz + lu.U.nnz) if lu is not None else 0
    m["output.bytes_written"] = p["bytes"]
    if "hjb" not in p["seconds"]:
        m["hjb_uncovered_s"] = 0.0
    elif any(s in absent for s in HJB_COVER):
        m["hjb_uncovered_s"] = ABSENT
    else:
        m["hjb_uncovered_s"] = p["seconds"]["hjb"] - p["hjb_covered"]
    m["trace.hook_calls"] = sum(tracer.calls.values())
    for name, _ in PER_LAYER:
        if SOURCE_SPAN.get(name, name.rsplit(".", 1)[0]) in absent:
            m[name] = ABSENT
    return m


def write_configs(cmds, suffix: str) -> dict:
    """Write each command's JSON config under WORK; label -> path."""
    configs = {}
    for cmd in cmds:
        configs[cmd.label] = os.path.join(WORK, cmd.label + suffix + ".json")
        with open(configs[cmd.label], "w", encoding="utf-8") as fh:
            json.dump(cmd.config, fh)
    return configs


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time spent in timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every grid (harness self-test, not timed)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    cmds = workloads.commands(args.workload, args.seed, tiny=args.tiny)
    warm_cmds = workloads.commands(args.workload, args.seed, tiny=True)
    os.makedirs(WORK, exist_ok=True)
    configs = write_configs(cmds, "")
    warm_configs = write_configs(warm_cmds, "-warm")

    setup = measure_setup(configs[cmds[0].label],
                          1 if args.tiny else SETUP_REPEATS)
    env = environment()
    # the warm-up pass runs the same commands on tiny grids: it pays the
    # first-call costs (lazy imports, caches) without a full pass's time
    warm = run_pass(cli, warm_cmds, warm_configs)

    plain, traced, layer = [], [], []
    hooks = Hooks()
    t_start = time.perf_counter()
    while (not plain or (args.trace and not traced)
           or time.perf_counter() - t_start < args.seconds):
        if args.trace and len(traced) < len(plain):
            tracer = Tracer()
            hooks.install(tracer)
            try:
                traced.append(run_pass(cli, cmds, configs, tracer))
            finally:
                hooks.remove()
            layer.append(layer_metrics(traced[-1], tracer, hooks.absent))
        else:
            plain.append(run_pass(cli, cmds, configs))

    passes = [warm] + plain + traced
    verdicts = [item for p in passes for item in p["witness"].items()]
    attempted = len(verdicts)
    failed = sum(1 for _, v in verdicts if not v[0])
    # per command, its first failure if any, else its last verdict
    shown = {}
    for label, v in verdicts:
        if label not in shown or shown[label][0]:
            shown[label] = v
    wall = statistics.median(p["wall"] for p in plain)
    cmd_s = {label: statistics.median(p["seconds"][label] for p in plain)
             for label in plain[0]["seconds"]}

    if args.trace:
        values = {name: statistics.median(m[name] for m in layer)
                  for name, _ in PER_LAYER if name in layer[0]}
        for label in workloads.LABELS:
            values[f"{label}_s"] = cmd_s.get(label, 0.0)
        values["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced) - wall)
        units = dict(PER_LAYER)
    else:
        values = {"setup_s": statistics.median(setup), "wall_s": wall,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "pass_rate": (attempted - failed) / attempted}
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}

    fg, fc = workloads.seed_factors(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed,
              "gamma_factor": fg, "cost_factor": fc, "trace": args.trace,
              "tiny": args.tiny, "environment": env, "setup_samples": setup,
              "timed_passes": len(plain), "traced_passes": len(traced),
              "command_seconds": {k: [p["seconds"][k] for p in plain]
                                  for k in cmd_s},
              "witness": {label: {"ok": v[0], "detail": v[1], "values": v[2]}
                          for label, v in shown.items()},
              "absent_hooks": hooks.absent, "metrics": metrics}
    with open(os.path.join(WORK, f"result-{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}, seed {args.seed} (gamma_lin x{fg:.2f}, "
          f"nonlinear cost x{fc:.2f}), trace {args.trace}: 1 warm-up pass, "
          f"{len(plain)} timed, {len(traced)} traced")
    for label, secs in cmd_s.items():
        print(f"  {label + '_s':<14} {secs:10.4f} s  (median of {len(plain)})")
    for label, (ok, detail, _) in shown.items():
        print(f"  witness {label:<11} {'PASS' if ok else 'FAIL'}  {detail}")
    print(f"  error_rate     {failed / attempted:10.4f}   "
          f"({failed} of {attempted} commands failed)")
    if hooks.absent:
        print(f"  absent hooks (reported as {ABSENT:g}): "
              + ", ".join(hooks.absent))
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
