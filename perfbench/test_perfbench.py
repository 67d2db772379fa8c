"""Tests of the benchmark itself: seeded inputs and the output checks.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

W.load_library()
SPECS = run.make_specs(run.load_digests())


def _snapshot(inputs, passes=2):
    return [[(j.key, j.rung, repr(j.data)) for j in inputs.pass_jobs(p)]
            for p in range(passes)]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_same_seed_same_inputs(name):
    spec = SPECS[name]
    assert _snapshot(spec.inputs(7)) == _snapshot(spec.inputs(7))
    assert _snapshot(spec.inputs(7)) != _snapshot(spec.inputs(8))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_rungs_do_not_depend_on_seed(name):
    rungs = [[r for _, r, _ in p] for p in _snapshot(SPECS[name].inputs(3))]
    again = [[r for _, r, _ in p] for p in _snapshot(SPECS[name].inputs(4))]
    if name == "cli-cold":  # the seed shuffles the tour
        rungs, again = [sorted(p) for p in rungs], [sorted(p) for p in again]
    assert rungs == again
    assert all(len(p) % 2 == 1 for p in rungs)


def _job(name, rung, seed=run.DEFAULT_SEED):
    inputs = SPECS[name].inputs(seed)
    return next(j for j in inputs.pass_jobs(0) if j.rung == rung)


def _outcomes(name, seed=run.DEFAULT_SEED, corrupt=None):
    spec = SPECS[name]
    canonical = spec.canonical
    if corrupt is not None:
        def canonical(job, raw):
            out = spec.canonical(job, raw)
            corrupt(out)
            return out
    expected = run.load_digests()["jobs"].get(name, {}) if seed == run.DEFAULT_SEED else {}
    return run.Outcomes(run.Spec(spec.inputs, spec.run, canonical, spec.check), expected)


def _record(outcomes, job):
    raw = outcomes.spec.run(job)
    outcomes.record(job, 0.0, 0.0, raw, None)
    return outcomes


@pytest.mark.parametrize("name,rung", [("cone-ladder", "moment-x4"),
                                       ("record-search", "sl23-b30"),
                                       ("reductive-sweep", "G2")])
def test_honest_output_passes(name, rung):
    outcomes = _record(_outcomes(name), _job(name, rung))
    assert (outcomes.failed, outcomes.problems) == (0, [])


def test_dropped_generator_matches_no_digest():
    def drop(out):
        del out["hilbert_basis"][len(out["hilbert_basis"]) // 2]
    outcomes = _record(_outcomes("cone-ladder", corrupt=drop), _job("cone-ladder", "moment-x4"))
    assert outcomes.failed == 1
    assert "committed digest" in outcomes.problems[0]


def test_dropped_extremal_generator_fails_the_checks_at_any_seed():
    job = _job("cone-ladder", "moment-x4", seed=5)
    ray = list(oracles.facet_normals(job.data)[0])

    def drop(out):
        out["hilbert_basis"].remove(ray)
    outcomes = _record(_outcomes("cone-ladder", seed=5, corrupt=drop), job)
    assert outcomes.failed == 1
    assert "missing from the Hilbert basis" in outcomes.problems[0]


def test_reducible_generator_fails_the_checks():
    def add_sum(out):
        a, b = out["hilbert_basis"][:2]
        out["hilbert_basis"].append([x + y for x, y in zip(a, b)])
    outcomes = _record(_outcomes("cone-ladder", seed=5, corrupt=add_sum),
                       _job("cone-ladder", "moment-x4", seed=5))
    assert outcomes.failed == 1
    assert "reducible" in outcomes.problems[0]


def test_wrong_witness_fails_the_checks():
    def shift_root(out):
        row = next(r for r in out["divisors"] if r[2] == "witness")
        row[4] = [x + 1 for x in row[4]]
    outcomes = _record(_outcomes("record-search", seed=5, corrupt=shift_root),
                       _job("record-search", "torus3-b30", seed=5))
    assert outcomes.failed == 1


def test_missing_descriptor_fails_the_checks():
    def drop(out):
        q = next(q for q in out["queries"] if q[1])
        q[1].pop()
    outcomes = _record(_outcomes("reductive-sweep", seed=5, corrupt=drop),
                       _job("reductive-sweep", "B3", seed=5))
    assert outcomes.failed == 1
    assert "dimension" in outcomes.problems[0]


def test_refusal_counts_as_refused_not_failed():
    outcomes = _outcomes("cone-ladder")
    job = _job("cone-ladder", "moment-x24")
    with pytest.raises(ValueError) as exc:
        outcomes.spec.run(job)
    outcomes.record(job, 0.0, 0.0, None, exc.value)
    assert (outcomes.refused, outcomes.failed) == (1, 0)
    other = _job("cone-ladder", "moment-x4")
    refusal = ValueError("zonotope lattice-point enumeration is too large")
    outcomes.record(other, 0.0, 0.0, None, refusal)
    assert outcomes.failed == 1


def test_changed_cli_stdout_fails():
    golden = {W.cli_key(("validate", "data/shared-ray.json")): "0" * 64}
    job = W.Job("k", "validate", ("validate", "data/shared-ray.json"))
    assert W.cli_cold_check(job, {"exit": 0, "stdout_sha256": "1" * 64}, golden)
    assert not W.cli_cold_check(job, {"exit": 0, "stdout_sha256": "0" * 64}, golden)


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    assert run.tail(values) == (90, 90.0, 100)
