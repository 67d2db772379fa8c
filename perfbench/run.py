#!/usr/bin/env python3
"""Seeded end-to-end benchmark of demroots, stdlib only.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cone-ladder --seed 1 --seconds 20 --trace 0

Workloads: cone-ladder, record-search, reductive-sweep, cli-cold (see
workloads.py for what each job does and why the workload exists). One
process, one closed-loop client, no threads; cli-cold runs one subprocess at
a time. Whole passes of jobs run until the next pass would pass --seconds of
rescaled job time (see below). Every output is checked; the checks run
between jobs and are not timed.

Times are rescaled to a reference speed. This benchmark was built on a
2-vCPU VM whose speed drifts by up to 2x over tens of seconds, as other
tenants load the host. A probe is timed between consecutive jobs, and each
job's wall time is multiplied by the probe's reference time over the mean
of the probe times around it. The probe is a fixed pure-Python kernel
(calibrate), or on cli-cold a bare interpreter start. A change to demroots
moves these times as it moves wall time; host drift mostly does not. The
raw wall-clock figures are printed alongside.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes, wrapping the public functions of every module (tracer.py),
and prints per-layer busy time, self-time shares, counts and the tracing
overhead; its spans go to .perfbench/ in the checkout. The last line of
stdout is always one JSON object: correct, attempted, failed, metrics.

--write-digests recomputes perfbench/digests.json from the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads as W  # noqa: E402

DEFAULT_SEED = 1
SETUP_PROBES = 8          # extra set-ups in child processes; median with our own
STARTUP_PROBES = 5        # bare-interpreter and import probes in the traced run
DIGEST_FILE = HERE / "digests.json"
DIGEST_PASSES = 8         # passes of fresh-input workloads covered by digests
TRACE_DIR = ROOT / ".perfbench"
CALIBRATION_REF = 0.005   # seconds the kernel takes at the reference speed
INTERPRETER_REF = 0.050   # seconds python -c pass takes at the reference speed
WALL_CAP = 1.25           # wall-clock job time stops at this multiple of --seconds

_CAL_GENS = ((1, 0, 0), (1, 1, 1), (1, 2, 4), (1, 3, 9))
_CAL_BOX = [p for p in itertools.product(range(-2, 4), range(-3, 4), range(-4, 4)) if any(p)]


def calibrate():
    """Time a fixed kernel shaped like the library's hot loops.

    It filters box points by inequalities, runs a quadratic reducibility
    test over tuples and does a little Fraction and dict work: 3 to 6 ms on
    the 2-vCPU VM the benchmark was built on.
    """
    start = time.perf_counter()
    members = [p for p in _CAL_BOX
               if all(sum(a * b for a, b in zip(g, p)) >= 0 for g in _CAL_GENS)]
    irreducible = 0
    for x in members:
        for c in members:
            if c is not x:
                diff = tuple(a - b for a, b in zip(x, c))
                if any(diff) and all(sum(a * b for a, b in zip(g, diff)) >= 0
                                     for g in _CAL_GENS):
                    break
        else:
            irreducible += 1
    acc, table = Fraction(0), {}
    for i in range(100):
        acc += Fraction(i % 13 + 1, i % 17 + 1)
        table[(i % 5, i % 7)] = acc
    return time.perf_counter() - start


def rescale(seconds, before, after, ref=CALIBRATION_REF):
    return seconds * ref / ((before + after) / 2)


class Spec:
    """How one workload makes inputs, runs a job, canonicalizes and checks it.

    probe is the calibration timed between jobs and ref its reference time.
    """

    def __init__(self, inputs, run, canonical, check, probe=None, ref=None):
        self.inputs, self.run, self.canonical, self.check = inputs, run, canonical, check
        self.probe = probe or calibrate
        self.ref = ref or CALIBRATION_REF


def make_specs(digests):
    env = W.cli_env(ROOT)
    golden = digests["cli_stdout"]

    def interpreter_start():
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True,
                       capture_output=True, timeout=120)
        return time.perf_counter() - start

    return {
        "cone-ladder": Spec(W.cone_ladder_inputs, W.cone_ladder_run,
                            W.cone_ladder_canonical, W.cone_ladder_check),
        "record-search": Spec(W.record_search_inputs, W.record_search_run,
                              W.record_search_canonical, W.record_search_check),
        "reductive-sweep": Spec(W.reductive_sweep_inputs, W.reductive_sweep_run,
                                W.reductive_sweep_canonical, W.reductive_sweep_check),
        # A bare interpreter start tracks the host's speed for process start-up
        # far better than the in-process kernel does (IQR 3 % against 7 %).
        "cli-cold": Spec(W.cli_cold_inputs, lambda job: W.cli_cold_run(job, ROOT, env),
                         W.cli_cold_canonical,
                         lambda job, out: W.cli_cold_check(job, out, golden),
                         interpreter_start, INTERPRETER_REF),
    }


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_checkout():
    if not (ROOT / "src" / "demroots" / "__init__.py").is_file():
        fail(f"no src/demroots under {ROOT}; run from the root of a demroots checkout")
    if not (ROOT / "data").is_dir():
        fail(f"no data/ directory under {ROOT}")


def setup(name, seed, specs):
    """Import the library from the checkout and generate the inputs.

    Returns the inputs and the rescaled set-up time.
    """
    calibrate()
    before = calibrate()
    start = time.perf_counter()
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    package = W.load_library()
    if name == "cli-cold":
        import demroots.cli  # noqa: F401
    inputs = specs[name].inputs(seed)
    elapsed = rescale(time.perf_counter() - start, before, calibrate())
    if Path(package.__file__).resolve().parent != (ROOT / "src" / "demroots").resolve():
        fail(f"imported demroots from {package.__file__}, not from this checkout")
    return inputs, elapsed


def setup_probe(name, seed):
    """Child processes repeat the set-up so setup_s can be a median."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def startup_probe(code):
    env = W.cli_env(ROOT)
    times = []
    before = calibrate()
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       capture_output=True, timeout=120)
        elapsed = time.perf_counter() - start
        after = calibrate()
        times.append(rescale(elapsed, before, after))
        before = after
    return statistics.median(times) * 1e3


def load_digests():
    if DIGEST_FILE.is_file():
        return json.loads(DIGEST_FILE.read_text())
    return {"seed": DEFAULT_SEED, "jobs": {}, "cli_stdout": {}}


def digest(canon):
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Outcomes:
    """Outcome of every job, checking each distinct input once.

    A job seen before must give the digest it gave the first time.
    """

    def __init__(self, spec, expected):
        self.spec, self.expected = spec, expected
        self.seen = {}
        self.latencies = []     # rescaled
        self.raw = []           # wall clock
        self.rungs = {}
        self.refused = self.failed = 0
        self.problems = []

    def record(self, job, wall, latency, raw, exc):
        self.raw.append(wall)
        self.latencies.append(latency)
        self.rungs.setdefault(job.rung, []).append(latency)
        if exc is not None:
            if job.refusable and isinstance(exc, ValueError) and "too large" in str(exc):
                self.refused += 1
                return
            self._fail(job, f"{type(exc).__name__}: {exc}")
            return
        canon = self.spec.canonical(job, raw)
        d = digest(canon)
        if job.key in self.seen:
            if self.seen[job.key] != d:
                self._fail(job, "output changed between repeats of the same input")
            return
        self.seen[job.key] = d
        problems = list(self.spec.check(job, canon))
        want = self.expected.get(job.key)
        if want is not None and want != d:
            problems.append("canonical output differs from the committed digest")
        if problems:
            self._fail(job, "; ".join(problems))

    def _fail(self, job, text):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{job.key} [{job.rung}]: {text}")


def run_pass(spec, jobs, outcomes, trace=None):
    """Run one pass; return a Pass of wall and rescaled latencies."""
    walls, latencies = [], []
    bad = outcomes.refused + outcomes.failed
    before = spec.probe()
    for job in jobs:
        raw = exc = None
        ctx = trace.job(job.key) if trace else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with ctx:
                raw = spec.run(job)
        except Exception as e:  # every failure is counted, none aborts the run
            exc = e
        wall = time.perf_counter() - start
        after = spec.probe()
        latency = rescale(wall, before, after, spec.ref)
        before = after
        walls.append(wall)
        latencies.append(latency)
        if trace:
            trace.scale[job.key] = latency / wall
        outcomes.record(job, wall, latency, raw, exc)
    good = len(jobs) - (outcomes.refused + outcomes.failed - bad)
    return Pass(trace is not None, walls, latencies, good)


class Pass:
    def __init__(self, traced, walls, latencies, good):
        self.traced, self.walls, self.latencies, self.good = traced, walls, latencies, good

    @property
    def time(self):
        return sum(self.latencies)


def tail(latencies):
    """Latency at the highest percentile with at least 10 samples beyond it."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def timed_loop(spec, inputs, seconds, outcomes, tracers=None):
    """Whole passes until the next would take the rescaled job time past seconds.

    Counting rescaled time keeps the number of passes, and so the rank of
    the tail percentile, the same on a slow host; wall-clock job time is
    capped at WALL_CAP times seconds all the same. With a tracers list, odd
    passes run traced, each under a fresh Tracer appended to the list.
    Returns the list of Pass records.
    """
    passes = []
    i = 0
    while True:
        jobs = inputs.pass_jobs(i)
        if jobs is None:
            break
        trace = None
        if tracers is not None and i % 2 == 1:
            trace = tracer.Tracer()
            tracers.append(trace)
            trace.install()
        try:
            passes.append(run_pass(spec, jobs, outcomes, trace))
        finally:
            if trace:
                trace.uninstall()
        i += 1
        if tracers is not None and i < 2:
            continue
        rescaled = [p.time for p in passes]
        walls = [sum(p.walls) for p in passes]
        if sum(rescaled) + statistics.median(rescaled) > seconds or \
                sum(walls) + statistics.median(walls) > WALL_CAP * seconds:
            break
    return passes


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def result_line(outcomes, metrics):
    attempted = len(outcomes.latencies)
    return json.dumps({"correct": outcomes.failed == 0, "attempted": attempted,
                       "failed": outcomes.failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def end_to_end(name, spec, inputs, seed, seconds, setup_times, expected):
    outcomes = Outcomes(spec, expected)
    passes = timed_loop(spec, inputs, seconds, outcomes)
    attempted = len(outcomes.latencies)
    good = attempted - outcomes.refused - outcomes.failed
    tail_s, tail_pct, n = tail(outcomes.latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_s": (statistics.median(p.good / p.time for p in passes), "1/s"),
        "job_p50_ms": (statistics.median(outcomes.latencies) * 1e3, "ms"),
        "job_tail_ms": (tail_s * 1e3, "ms"),
        "success_rate": (good / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(name == "cli-cold"), "MB"),
    }
    wall = sum(outcomes.raw)
    print(f"workload {name}  seed {seed}  passes {len(passes)}  jobs {attempted}  "
          f"wall-clock job time {wall:.2f} s")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<13} {value:12.4f} {unit}")
    print(f"  {'error_rate':<13} {(attempted - good) / attempted:12.4f} ratio"
          f"  (refused {outcomes.refused}, failed {outcomes.failed}, of {attempted})")
    print(f"  job_tail_ms is p{tail_pct:.1f} of {n} samples, 10 beyond it")
    print(f"  wall clock: {good / wall:.4f} jobs/s, p50 "
          f"{statistics.median(outcomes.raw) * 1e3:.4f} ms, tail "
          f"{tail(outcomes.raw)[0] * 1e3:.4f} ms; host speed factor "
          f"{wall / sum(outcomes.latencies):.3f}")
    for rung, lat in outcomes.rungs.items():
        print(f"    rung {rung:<16} median {statistics.median(lat) * 1e3:9.2f} ms  "
              f"x{len(lat)}")
    report_problems(outcomes)
    print(result_line(outcomes, metrics))


def report_problems(outcomes):
    for p in outcomes.problems:
        print(f"  FAILED {p}")


class CliInProcess:
    """cli-cold jobs run through demroots.cli.main inside this process.

    The traced run uses this to split a command into layers; caches are
    cleared before each command, as in a fresh process.
    """

    def __init__(self):
        import demroots.cli
        self.cli = demroots.cli
        self.caches = [f for m in list(sys.modules.values())
                       if getattr(m, "__name__", "").startswith("demroots")
                       for f in vars(m).values() if hasattr(f, "cache_clear")]

    def run(self, job):
        for f in self.caches:
            f.cache_clear()
        buf = io.StringIO()
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(list(job.data))
        finally:
            os.chdir(cwd)
        return code, buf.getvalue().encode()


PER_LAYER_MS = (
    "cones.dual_monoid", "cones.build_cone", "lattice.smith_normal_form",
    "toric.enumerate_demazure_roots", "toric.exponentiate", "datumio.parse_datum",
    "spherical.validate", "search.gstable_report", "search.find_witness",
    "rootsystems.root_system", "rootsystems.nilradical_highest_weights",
    "classifier.lnd_basis", "classifier.classify",
)
PER_LAYER_COUNTS = (
    "cones.hilbert_basis", "cones.dual_monoid.refused", "cones.extremal_rays",
    "lattice.smith_normal_form.calls", "toric.roots", "toric.flow_terms",
    "search.divisors", "search.witness", "search.inconclusive",
    "rootsystems.positive_roots", "classifier.basis_dim",
)
DOMINANT = {  # the layer share each workload exists to show
    "cone-ladder": ("function", ("cones.dual_monoid",)),
    "record-search": ("layer", ("search",)),
    "reductive-sweep": ("layer", ("rootsystems", "classifier")),
    "cli-cold": ("startup", ("interpreter", "import")),
}


def traced(name, spec, inputs, seed, seconds, expected):
    if name == "cli-cold":
        spec = Spec(None, CliInProcess().run, spec.canonical, spec.check)  # kernel probe
    outcomes = Outcomes(spec, expected)
    interpreter_ms = startup_probe("pass")
    import_ms = startup_probe("import demroots.cli") - interpreter_ms
    tracers = []
    passes = timed_loop(spec, inputs, seconds, outcomes, tracers)
    plain = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    per_pass = [tracer.aggregate(t.spans, t.scale) for t in tracers]
    counts = tracers[0].counts
    metrics = {}
    for fn in PER_LAYER_MS:
        ms = statistics.median(busy.get(fn, 0.0) for _, busy, _, _ in per_pass) * 1e3
        metrics[f"{fn}.ms"] = (ms, "ms")
    for c in PER_LAYER_COUNTS:
        metrics[c] = (counts.get(c, 0), "count")
    holds = counts.get("search.ray_holds", 0)
    metrics["search.witness_ratio"] = (
        counts.get("search.witness", 0) / holds if holds else 0.0, "ratio")
    metrics["cli.interpreter_ms"] = (interpreter_ms, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    commands = [x * 1e3 for p in plain for x in p.latencies] if name == "cli-cold" else [0.0]
    metrics["cli.command_ms"] = (statistics.median(commands), "ms")
    metrics["bench.trace_overhead"] = (
        statistics.median(p.time for p in traced_passes)
        / statistics.median(p.time for p in plain), "ratio")

    total = sum(a[0] for a in per_pass)
    layers, fns = {}, {}
    for _, _, self_fn, self_layer in per_pass:
        for k, v in self_layer.items():
            layers[k] = layers.get(k, 0.0) + v
        for k, v in self_fn.items():
            fns[k] = fns.get(k, 0.0) + v
    print(f"workload {name}  seed {seed}  traced passes {len(traced_passes)}  "
          f"untraced passes {len(plain)}")
    print("  self-time share by layer (traced passes):")
    for k, v in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"    {k:<14} {100 * v / total:6.1f} %")
    print("  self-time share by function:")
    for k, v in sorted(fns.items(), key=lambda kv: -kv[1])[:12]:
        print(f"    {k:<40} {100 * v / total:6.1f} %")
    kind, names = DOMINANT[name]
    if kind == "startup":
        parts = {"interpreter": interpreter_ms, "import": import_ms,
                 "command": statistics.mean(commands)}
        share = {k: v / sum(parts.values()) for k, v in parts.items()}
        print("  cold-process share: " + ", ".join(
            f"{k} {100 * v:.1f} %" for k, v in share.items()))
        top, rest = share["interpreter"] + share["import"], share["command"]
    else:
        table = fns if kind == "function" else layers
        top = sum(table.get(n, 0.0) for n in names) / total
        rest = max((v for k, v in table.items() if k not in names), default=0.0) / total
    print(f"  dominance of {'+'.join(names)}: {100 * top:.1f} % vs next largest "
          f"{100 * rest:.1f} %: {'confirmed' if top > rest else 'NOT confirmed'}")
    print("  per-layer metrics:")
    for key, (value, unit) in metrics.items():
        print(f"    {key:<42} {value:12.4f} {unit}")
    report_problems(outcomes)
    write_spans(name, seed, tracers)
    print(result_line(outcomes, metrics))


def write_spans(name, seed, tracers):
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for p, t in enumerate(tracers):
            for span_name, start, end, parent, job, _ in t.spans:
                fh.write(json.dumps({"pass": p, "name": span_name, "start": start,
                                     "end": end, "parent": parent, "job": job}) + "\n")


def write_digests(specs):
    seed = DEFAULT_SEED
    out = {"seed": seed, "jobs": {}, "cli_stdout": {}}
    for argv in W.cli_commands():
        code, stdout = specs["cli-cold"].run(W.Job("", "", argv))
        if code != 0:
            fail(f"{W.cli_key(argv)} exited with {code}")
        out["cli_stdout"][W.cli_key(argv)] = hashlib.sha256(stdout).hexdigest()
    for name, spec in specs.items():
        if name == "cli-cold":
            continue
        inputs = spec.inputs(seed)
        table = {}
        for p in range(1 if inputs.cyclic else DIGEST_PASSES):
            for job in inputs.pass_jobs(p):
                try:
                    raw = spec.run(job)
                except ValueError:
                    continue
                canon = spec.canonical(job, raw)
                problems = spec.check(job, canon)
                if problems:
                    fail(f"{name} {job.key}: {problems}")
                table[job.key] = digest(canon)
        out["jobs"][name] = table
    DIGEST_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGEST_FILE.relative_to(ROOT)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("cone-ladder", "record-search",
                                           "reductive-sweep", "cli-cold"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-digests", action="store_true")
    args = ap.parse_args(argv)
    check_checkout()
    digests = load_digests()
    specs = make_specs(digests)
    if args.write_digests:
        setup("cone-ladder", DEFAULT_SEED, specs)
        write_digests(specs)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    inputs, own = setup(args.workload, args.seed, specs)
    if args.setup_probe:
        print(repr(own))
        return 0
    spec = specs[args.workload]
    expected = digests["jobs"].get(args.workload, {}) if args.seed == digests["seed"] else {}
    if args.trace:
        traced(args.workload, spec, inputs, args.seed, args.seconds, expected)
    else:
        setup_times = [own] + setup_probe(args.workload, args.seed)
        end_to_end(args.workload, spec, inputs, args.seed, args.seconds, setup_times, expected)
    return 0


if __name__ == "__main__":
    sys.exit(main())
