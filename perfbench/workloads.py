"""The four benchmark workloads: seeded inputs, the job each one times, checks.

A workload turns a seed into passes of jobs. A job is one unit of user work;
``run`` does the work and returns the library's own objects, ``canonical``
turns them into plain lists for digests, and ``check`` recomputes what it can
from definitions (see oracles.py) and returns the problems it finds.

Each rung of a workload is fixed; the seed draws only vectors, weights and
color types inside a rung, so the work per pass stays steady across seeds.
Every pass has an odd number of jobs and runs whole, which keeps the median
job on the same rung from run to run.

Calls into demroots go through module attributes (``cones.build_cone``), so
the traced run can wrap them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracles

# Imported by load_library(), after the checkout's src/ is on sys.path.
demroots = cones = lattice = toric = rootsystems = spherical = None
classifier = search = datumio = None

PASSES_AHEAD = 64  # passes of fresh inputs generated at set-up


def load_library():
    """Import demroots from the checkout; return the package."""
    global demroots, cones, lattice, toric, rootsystems, spherical
    global classifier, search, datumio
    import demroots
    from demroots import (classifier, cones, datumio, lattice, rootsystems,
                          search, spherical, toric)
    return demroots


@dataclass
class Job:
    key: str          # unique within a run; same key means same input
    rung: str
    data: object
    refusable: bool = False


@dataclass
class Inputs:
    passes: list
    cyclic: bool = False   # repeat the same pass; otherwise each pass is fresh

    def pass_jobs(self, i):
        if self.cyclic:
            return self.passes[i % len(self.passes)]
        return self.passes[i] if i < len(self.passes) else None


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# cone-ladder
# Why: cones.dual_monoid (the zonotope Hilbert basis) does almost all the work
# here and search is absent, so a Hilbert-basis change shows here first. The
# 2-D family (0,1),(a,a-1) and the cones over (1,x,x^2) are the quadratic
# cliffs of the roadmap; x < 24 is refused at _ZONOTOPE_CAP, so the refusal
# shows in error_rate. Random rungs of rank 2-5 are kept cheap by a cap on
# the box of their dual rays: unbounded random entries give 27 s jobs.
# ---------------------------------------------------------------------------

RANDOM_RUNGS = (  # (rank, generators, entry bound, box cap)
    (2, 3, 9, 300),
    (3, 4, 2, 300),
    (4, 5, 1, 400),
    (5, 5, 1, 1000),
)
TWO_D = (24, 28, 32, 40)
# x < 6 runs twice a pass, so the tail percentile (ten samples beyond it)
# always falls inside the group of the slowest rung.
MOMENT = (4, 5, 6, 6, 24)
ROOT_BOUND = {2: 3, 3: 3, 4: 2, 5: 1}


def _box(rays):
    size = 1
    for j in range(len(rays[0])):
        size *= sum(abs(r[j]) for r in rays) + 1
    return size


def _random_cone(rng, rank, n, e, cap):
    while True:
        gens = [(rng.randint(1, e),) + tuple(rng.randint(-e, e) for _ in range(rank - 1))
                for _ in range(n)]
        if len(set(oracles.primitive(g) for g in gens)) < n or oracles.rank(gens) < rank:
            continue
        if _box(oracles.facet_normals(gens)) <= cap:
            return gens


def _present(rng, gens):
    """Scale each generator by a drawn positive integer.

    This leaves the cone, and the order in which dual_monoid tests its
    inequalities, unchanged, so a fixed rung does the same work at any seed.
    Reordering the generators would not: it moves the test that rejects a
    candidate first and changes the time by up to half.
    """
    out = []
    for g in gens:
        k = rng.randint(1, 3)
        out.append(tuple(k * x for x in g))
    return out


def cone_ladder_inputs(seed):
    rng = _rng("cone-ladder", seed)
    jobs = []
    for rank, n, e, cap in RANDOM_RUNGS:
        jobs.append((f"rank{rank}-n{n}-e{e}", _random_cone(rng, rank, n, e, cap)))
    for a in TWO_D:
        jobs.append((f"2d-a{a}", _present(rng, [(0, 1), (a, a - 1)])))
    for x in MOMENT:
        jobs.append((f"moment-x{x}", _present(rng, [(1, i, i * i) for i in range(x)])))
    return Inputs([[Job(f"p{i}", rung, gens, refusable=rung == "moment-x24")
                    for i, (rung, gens) in enumerate(jobs)]], cyclic=True)


def cone_ladder_run(job):
    gens = job.data
    rank = len(gens[0])
    cone = cones.build_cone([lattice.DualVector(g) for g in gens])
    rays = [r.coords for r in cone.extremal_rays]
    _, snf, _ = lattice.smith_normal_form(rays)
    monoid = cones.dual_monoid(cone)
    roots = toric.enumerate_demazure_roots(cone, ROOT_BOUND[rank])
    flow = None
    if roots:
        element = toric.AlgebraElement.zero()
        for h in monoid.hilbert_basis:
            element = element + toric.monomial(h)
        flow = toric.exponentiate(roots[0], element)
    return cone, snf, monoid, roots, flow


def cone_ladder_canonical(job, raw):
    cone, snf, monoid, roots, flow = raw
    return {
        "rays": [list(r.coords) for r in cone.extremal_rays],
        "class_group": [snf[i][i] for i in range(min(len(snf), len(snf[0])))],
        "hilbert_basis": [list(h.coords) for h in monoid.hilbert_basis],
        "roots": [[list(r.rho.coords), list(r.mu.coords)] for r in roots],
        "flow": None if flow is None else [
            [[list(w.coords), str(c)] for w, c in flow.coefficient(k).terms]
            for k in range(flow.degree() + 1)],
    }


def cone_ladder_check(job, out):
    gens = [tuple(g) for g in job.data]
    rank = len(gens[0])
    problems = []
    rays = [tuple(r) for r in out["rays"]]
    if rays != oracles.extremal_generators(gens):
        problems.append("extremal rays differ from the facet oracle")
    diag = [d for d in out["class_group"] if d]
    prod = 1
    for d in diag:
        prod *= d
    if any(b % a for a, b in zip(diag, diag[1:])) or \
            prod != oracles.invariant_factor_product(rays):
        problems.append("ray-matrix invariant factors disagree with its minors")
    hb = [tuple(h) for h in out["hilbert_basis"]]
    for h in hb:
        if not oracles.in_dual(gens, h):
            problems.append(f"Hilbert basis member {h} is outside the dual cone")
        elif oracles.reducible(hb, h, gens):
            problems.append(f"Hilbert basis member {h} is reducible")
    for n in oracles.facet_normals(gens):
        if n not in hb:
            problems.append(f"dual extremal ray {n} is missing from the Hilbert basis")
    roots = [(tuple(r), tuple(m)) for r, m in out["roots"]]
    for rho, mu in roots:
        if not oracles.is_demazure_root(rays, rho, mu):
            problems.append(f"{mu} is not a Demazure root for ray {rho}")
    if sorted(roots) != oracles.demazure_roots(rays, ROOT_BOUND[rank]):
        problems.append("root list differs from the box scan")
    if roots:
        rho, mu = roots[0]
        expected = oracles.flow_closed_form(rho, mu, hb)
        got = {k: {tuple(w): Fraction(c) for w, c in terms}
               for k, terms in enumerate(out["flow"] or [])}
        if got != expected:
            problems.append("flow differs from the binomial closed form")
        if len(got) - 1 != max(oracles.dot(rho, h) for h in hb):
            problems.append("flow degree differs from max <rho, lambda>")
    return problems


# ---------------------------------------------------------------------------
# record-search
# Why: the box scans in search dominate (on a 2-vCPU VM about 100 ms per
# record at rank 3 with bound 30, 350 ms at rank 4 with bound 10). Kappas are unimodular and small,
# so cones shows up only as many small build_cone/slice_cone calls and cheap
# monoids: per-call overhead added to the Hilbert basis shows here. No record
# repeats, so the lru_caches in spherical never help.
# ---------------------------------------------------------------------------

RECORD_RUNGS = (  # (group, rank, search bound); bound shrinks as (2b+1)^(r-1) grows
    ("torus", 3, 30),
    ("sl2", 3, 30),
    ("torus", 4, 10),
    ("sl2", 4, 10),
    ("torus", 5, 4),
)


def _unimodular(rng, r):
    """Rows of P(I + N)Q: N strictly upper with entries in -1..1; det is +-1."""
    m = [[1 if i == j else (rng.randint(-1, 1) if j > i else 0) for j in range(r)]
         for i in range(r)]
    cols = list(range(r))
    rng.shuffle(cols)
    rows = [tuple(row[c] for c in cols) for row in m]
    rng.shuffle(rows)
    return rows


def _record_doc(group, rank, kappas, rng):
    if group == "torus":
        cartan = {"ambient_rank": rank, "simple_roots": [], "simple_coroots": []}
        divisors = [{"name": f"d{i}", "kappa": list(k), "kind": "g-stable"}
                    for i, k in enumerate(kappas)]
    else:
        e0 = [1] + [0] * (rank - 1)
        cartan = {"ambient_rank": rank, "simple_roots": [[2] + e0[1:]],
                  "simple_coroots": [e0]}
        divisors = [{"name": "t", "kappa": list(kappas[0]), "kind": "color",
                     "color_type": "T", "moved_by": [0]},
                    {"name": "u", "kappa": list(kappas[1]), "kind": "color",
                     "color_type": rng.choice("UN"), "moved_by": [0]}]
        divisors += [{"name": f"d{i}", "kappa": list(k), "kind": "g-stable"}
                     for i, k in enumerate(kappas[2:])]
    basis = [[int(i == j) for j in range(rank)] for i in range(rank)]
    return {"cartan": cartan, "lattice_M": {"basis_rows": basis}, "divisors": divisors}


def record_search_inputs(seed, passes=PASSES_AHEAD):
    rng = _rng("record-search", seed)
    seen = set()
    out = []
    for p in range(passes):
        jobs = []
        for i, (group, rank, bound) in enumerate(RECORD_RUNGS):
            while True:
                kappas = _unimodular(rng, rank)
                if (group, tuple(kappas)) not in seen:
                    seen.add((group, tuple(kappas)))
                    break
            doc = _record_doc(group, rank, kappas, rng)
            jobs.append(Job(f"p{p}.{i}", f"{group}{rank}-b{bound}",
                            (json.dumps(doc, indent=2), bound)))
        out.append(jobs)
    return Inputs(out)


def record_search_run(job):
    text, bound = job.data
    datum = datumio.parse_datum(text)
    report = spherical.validate(datum)
    rows = list(search.gstable_report(datum, bound))
    for c in datum.colors:
        if c.color_type == "T":
            rows.append(search.find_witness(datum, c.name, bound))
    return report, rows


def record_search_canonical(job, raw):
    report, rows = raw
    return {
        "checks": [[c.name, c.passed] for c in report.checks],
        "divisors": [[r.divisor, r.check.status, r.status] + (
            [list(r.witness.ray.coords), list(r.witness.mu.coords),
             list(r.witness.shift.coords)] if r.witness else [])
            for r in rows],
    }


def record_search_check(job, out):
    text, bound = job.data
    doc = json.loads(text)
    kappa = {d["name"]: tuple(d["kappa"]) for d in doc["divisors"]}
    colors = [d["name"] for d in doc["divisors"] if d["kind"] == "color"]
    problems = []
    if not all(passed for _, passed in out["checks"]):
        problems.append("a generated record failed validation")
    expected = [d["name"] for d in doc["divisors"] if d["kind"] == "g-stable"]
    expected += [d["name"] for d in doc["divisors"] if d.get("color_type") == "T"]
    if [row[0] for row in out["divisors"]] != expected:
        problems.append("report rows do not cover the searched divisors")
    for row in out["divisors"]:
        name, ray_status, status = row[:3]
        # Kappas are the rows of a unimodular matrix: each spans its own
        # extremal ray, so the ray test holds for every searched divisor.
        if ray_status != "holds" or status not in ("witness", "inconclusive"):
            problems.append(f"{name}: unexpected statuses {ray_status}/{status}")
            continue
        if status != "witness":
            continue
        rho, mu, lam = (tuple(v) for v in row[3:])
        if rho != oracles.primitive(kappa[name]) or max(map(abs, mu)) > bound:
            problems.append(f"{name}: witness ray or root out of range")
        removed = [c for c in colors if c != name]
        chart = [k for n, k in kappa.items() if n not in removed]
        for n in (0, 1, 2, 5, 17):
            v = tuple(n * a + b for a, b in zip(lam, mu))
            if not oracles.is_demazure_root(chart, rho, v):
                problems.append(f"{name}: {n}*lam + mu does not pin the ray")
                break
        if oracles.dot(rho, lam) != 0 or not oracles.in_dual(kappa.values(), lam) \
                or any(oracles.dot(kappa[c], lam) < 1 for c in removed):
            problems.append(f"{name}: shift {lam} breaks the witness conditions")
    return problems


# ---------------------------------------------------------------------------
# reductive-sweep
# Why: rootsystems and classifier do the work. One datum per session is built
# through the library API and queried K times, so the lru_caches in spherical
# hit: the reuse-heavy counterpart to record-search. root_system grows fast
# with semisimple rank (A10 about 120 ms, A11 about 330 ms on a 2-vCPU VM)
# and sets the tail; the per-weight queries set the median.
# ---------------------------------------------------------------------------

SWEEP_RUNGS = (  # Cartan type and rank; every type A-G appears
    ("G", 2), ("B", 3), ("C", 4), ("F", 4), ("D", 5), ("E", 6),
    ("E", 8), ("B", 9), ("A", 10), ("A", 11), ("A", 11),
)  # A11 twice keeps the tail percentile inside the slowest rung's group
QUERIES = 24


def _sweep_session(rng, letter, n):
    rows = None
    while rows is None or oracles.rank(rows) < 2:
        rows = [tuple(rng.randint(-1, 1) for _ in range(n)) + (1,),
                tuple(rng.randint(-2, 2) for _ in range(n)) + (0,)]
    kappas = set()
    while len(kappas) < 5:
        k = (rng.randint(0, 3), rng.randint(0, 3))
        if any(k):
            kappas.add(oracles.primitive(k))
    kappas = sorted(kappas)
    rng.shuffle(kappas)
    while oracles.rank(kappas[:2]) < 2:
        rng.shuffle(kappas)
    pair = rng.choice((("T", "T"), ("T", "U"), ("U", "N"), ("N", "T"), ("U", "U")))
    divisors = [("g0", kappas[0], None, ()), ("g1", kappas[1], None, ()),
                ("a", kappas[2], rng.choice("UN"), (0,)),
                ("b", kappas[3], pair[0], (n - 1,)),
                ("c", kappas[4], pair[1], (n - 1,))]
    # Weight draws: (class, summand index, M coefficients, off-M shift).
    queries = []
    for q in range(QUERIES):
        cls = ("omega+M", "M", "other")[q % 3]
        queries.append((cls, rng.randrange(1 << 16),
                        (rng.randint(-2, 2), rng.randint(-2, 2)),
                        rng.randrange(n + 1)))
    return {"letter": letter, "n": n, "rows": rows, "divisors": divisors,
            "queries": queries}


def reductive_sweep_inputs(seed, passes=PASSES_AHEAD):
    rng = _rng("reductive-sweep", seed)
    return Inputs([[Job(f"p{p}.{i}", f"{letter}{n}", _sweep_session(rng, letter, n))
                    for i, (letter, n) in enumerate(SWEEP_RUNGS)]
                   for p in range(passes)])


def _weight(session, omega, query):
    cls, pick, coeffs, shift = query
    rows = session["rows"]
    w = [coeffs[0] * a + coeffs[1] * b for a, b in zip(*rows)]
    if cls == "omega+M" and omega:
        w = [x + y for x, y in zip(w, omega[pick % len(omega)].coords)]
    elif cls == "other":
        w[shift] += 1
    return lattice.LatticeVector(tuple(w), "X(T)")


def reductive_sweep_run(job):
    s = job.data
    n, ambient = s["n"], s["n"] + 1
    cartan = rootsystems.cartan_matrix_of_type(s["letter"], n)
    roots = [lattice.LatticeVector(tuple(cartan[i][j] for i in range(n)) + (0,), "X(T)")
             for j in range(n)]
    coroots = [lattice.DualVector(tuple(int(i == j) for i in range(ambient)), "X(T)")
               for j in range(n)]
    rs = rootsystems.root_system(roots, coroots, ambient)
    sub = lattice.Sublattice(ambient, s["rows"])
    divisors = [spherical.Divisor(name, lattice.DualVector(k, "M"),
                                  "g-stable" if t is None else "color", t, frozenset(m))
                for name, k, t, m in s["divisors"]]
    datum = spherical.SphericalDatum(rs, sub, divisors)
    report = spherical.validate(datum)
    subset = spherical.ColorSubset()
    levi = spherical.levi_subset(datum, subset)
    omega = rootsystems.nilradical_highest_weights(rs, levi)
    answers = []
    for q in s["queries"]:
        mu = _weight(s, omega, q)
        basis = classifier.lnd_basis(datum, subset, mu)
        verdicts = [classifier.classify(datum, subset, d) for d in basis]
        summands = rootsystems.nilradical_highest_weights(rs, levi)
        answers.append((mu, basis, verdicts, summands))
    return rs, levi, omega, report, answers


def reductive_sweep_canonical(job, raw):
    rs, levi, omega, report, answers = raw
    return {
        "positive_roots": len(rs.positive_roots),
        "levi": sorted(levi),
        "omega": [list(a.coords) for a in omega],
        "checks": [[c.name, c.passed] for c in report.checks],
        "queries": [[list(mu.coords),
                     [[d.kind, list((d.root or d.ray).coords)] for d in basis],
                     [[v.verdict, v.subtype, v.moved_divisor] for v in verdicts],
                     len(summands)]
                    for mu, basis, verdicts, summands in answers],
    }


def reductive_sweep_check(job, out):
    s = job.data
    n = s["n"]
    problems = []
    if out["positive_roots"] != oracles.POSITIVE_ROOT_COUNT[s["letter"]](n):
        problems.append("positive root count differs from the type's formula")
    if not all(passed for _, passed in out["checks"]):
        problems.append("a generated datum failed validation")
    moved = {i for _, _, t, m in s["divisors"] if t for i in m}
    if out["levi"] != sorted(set(range(n)) - moved):
        problems.append("Levi subset is not the roots moving no color")
    rows = s["rows"]
    chart = {name: k for name, k, t, _ in s["divisors"] if t is None}
    chart_rays = oracles.extremal_generators(list(chart.values()))
    for mu, basis, verdicts, n_summands in out["queries"]:
        realizable = []
        for a in out["omega"]:
            c = oracles.solve_rows(rows, [x - y for x, y in zip(mu, a)])
            if c is not None and oracles.in_dual(chart.values(), c):
                realizable.append(a)
        c = oracles.solve_rows(rows, mu)
        toric_ray = None
        if c is not None:
            pinned = [r for r in chart_rays if oracles.is_demazure_root(chart_rays, r, c)]
            toric_ray = list(pinned[0]) if pinned else None
        expected = [["unipotent", a] for a in realizable]
        if toric_ray is not None:
            expected.append(["toric", toric_ray])
        if basis != expected:
            problems.append(f"weight {mu}: basis of dimension {len(basis)} differs from "
                            f"the {len(expected)} expected terms")
        for (kind, vec), (verdict, subtype, name) in zip(basis, verdicts):
            if kind == "unipotent" and verdict != "vertical":
                problems.append(f"weight {mu}: unipotent term not vertical")
            if kind == "toric" and ((verdict, subtype) != ("horizontal", "toroidal")
                                    or name not in chart
                                    or oracles.primitive(chart[name]) != tuple(vec)):
                problems.append(f"weight {mu}: toric term moves the wrong divisor")
        if n_summands != len(out["omega"]):
            problems.append("nilradical summands changed between queries")
    return problems


# ---------------------------------------------------------------------------
# cli-cold
# Why: interpreter start, import, argparse and rendering are most of each job
# (about 130 ms on a 2-vCPU VM: 45 ms bare interpreter, 65 ms import), a cost
# absent from the other workloads. End to end in the roadmap means cold CLI runs. One
# subprocess at a time; stdout must match the committed bytes.
# ---------------------------------------------------------------------------

DATA = ("blurring-pair", "shared-ray", "sl2-plane", "sl2-times-torus", "sl2-two-colors",
        "torus-halfplane", "torus-quadrant", "torus-skew", "torus-space")
TOUR = (
    ("validate", "data/sl2-times-torus.json"),
    ("roots", "--cone", "1,0;1,2", "--bound", "3"),
    ("exp", "--cone", "1,0;0,1", "--root=-1,0", "--term", "2,1"),
    ("monoid", "data/torus-skew.json"),
    ("monoid", "data/sl2-times-torus.json", "--chart"),
    ("lnd-dim", "data/blurring-pair.json", "--weight=-1,1"),
    ("classify", "data/sl2-times-torus.json", "--weight", "0,-1"),
    ("omega", "data/sl2-times-torus.json", "--weight", "0,-1"),
    ("move-divisor", "data/sl2-times-torus.json", "--divisor", "axis"),
    ("report-gstable", "data/torus-quadrant.json"),
    ("report-gstable", "data/torus-space.json"),
    # The same search at bounds either side of the default 50: with six of
    # these slowest commands a pass, the tail percentile stays inside their group.
    ("report-gstable", "data/torus-space.json", "--search-bound", "48"),
    ("report-gstable", "data/torus-space.json", "--search-bound", "52"),
)


def cli_commands():
    """Every tour command in text and JSON, plus validate on every record.

    That makes 35 commands: an odd count keeps the median job inside a group.
    """
    cmds = [c for t in TOUR for c in (t, t + ("--format", "json"))]
    cmds += [("validate", f"data/{name}.json") for name in DATA if name != "sl2-times-torus"]
    cmds.append(("omega", "data/sl2-times-torus.json"))
    return cmds


def cli_key(argv):
    return " ".join(argv)


def cli_cold_inputs(seed, passes=PASSES_AHEAD):
    rng = _rng("cli-cold", seed)
    cmds = cli_commands()
    out = []
    for p in range(passes):
        order = list(cmds)
        rng.shuffle(order)
        out.append([Job(f"p{p}.{i}", argv[0], argv) for i, argv in enumerate(order)])
    return Inputs(out)


def cli_env(root):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(Path(root) / "src")
    return env


def cli_cold_run(job, root, env):
    proc = subprocess.run([sys.executable, "-m", "demroots", *job.data], cwd=root,
                          env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


def cli_cold_canonical(job, raw):
    code, stdout = raw
    return {"exit": code, "stdout_sha256": hashlib.sha256(stdout).hexdigest()}


def cli_cold_check(job, out, golden):
    problems = []
    if out["exit"] != 0:
        problems.append(f"exit code {out['exit']}")
    if out["stdout_sha256"] != golden.get(cli_key(job.data)):
        problems.append("stdout differs from the committed bytes")
    return problems
