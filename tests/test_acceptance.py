"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The random corpus (families with up to 10 states, 3 parameters, domain
size 3, thresholds drawn per seed) is shared across criteria.
"""

import json
import math
import time

import pytest

from famsynth import (
    Specification,
    Subfamily,
    all_in_one_check,
    all_realisations,
    build_quotient,
    instantiate,
    max_synthesis,
    min_synthesis,
    parse_family,
    random_family,
    random_spec,
    solve_prob,
    solve_reward,
    threshold_synthesis,
)
from famsynth.cli import main
from famsynth.engine import exact_mc_probability, exact_mc_reward, mdp_from_mc
from conftest import EXAMPLE1, R1, R2, R3, R4
from test_synthesis import NEAR_OPTIMAL_DOC

CORPUS_SIZE = 200
TOL = 1e-6


def report(criterion: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion:2d}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """200 random families with exact per-member values for their spec."""
    entries = []
    for seed in range(CORPUS_SIZE):
        family = random_family(seed, max_states=10, max_params=3,
                               max_domain=3, rewards=seed % 2 == 0)
        spec = random_spec(seed, family)
        goal = family.label_states("goal")
        prob_values = []
        reward_values = None if family.rewards is None else []
        for r in all_realisations(family):
            mc = instantiate(family, r)
            prob_values.append(exact_mc_probability(mc, goal)[mc.initial])
            if reward_values is not None:
                reward_values.append(exact_mc_reward(mc, goal)[mc.initial])
        entries.append({
            "seed": seed,
            "family": family,
            "spec": spec,
            "prob_values": prob_values,
            "reward_values": reward_values,
        })
    return entries


@pytest.fixture(scope="module")
def threshold_runs(corpus):
    runs = []
    t0 = time.perf_counter()
    for entry in corpus:
        outcome = threshold_synthesis(entry["family"], entry["spec"])
        runs.append(outcome)
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def oracle_buckets(entry):
    spec = entry["spec"]
    values = (entry["prob_values"] if spec.kind == "probability"
              else entry["reward_values"])
    t, f, u = set(), set(), set()
    for r, v in zip(all_realisations(entry["family"]), values):
        if v == math.inf:
            u.add(r.values)
        elif spec.satisfied(v):
            t.add(r.values)
        else:
            f.add(r.values)
    return t, f, u


def test_criterion_1_worked_example_partition(capsys, tmp_path):
    t0 = time.perf_counter()
    code = main(["synth", "--mode", "threshold", "--spec", "phi",
                 str(EXAMPLE1)])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    payload = json.loads(out)
    t_members = set()
    for sub in payload["T"]["subfamilies"]:
        import itertools
        for combo in itertools.product(*(sub[k] for k in ("k0", "k1", "k2"))):
            t_members.add(combo)
    f_members = set()
    for sub in payload["F"]["subfamilies"]:
        import itertools
        for combo in itertools.product(*(sub[k] for k in ("k0", "k1", "k2"))):
            f_members.add(combo)
    with capsys.disabled():
        report(1, code == 0 and t_members == {R2, R3}
               and f_members == {R1, R4} and elapsed < 1.0,
               f"T={sorted(t_members)} F={sorted(f_members)} "
               f"elapsed={elapsed:.3f}s")


def test_criterion_2_worked_example_optimum(capsys):
    code = main(["synth", "--mode", "max", "--spec", "obj", str(EXAMPLE1)])
    payload = json.loads(capsys.readouterr().out)
    best = tuple(payload["best"][k] for k in ("k0", "k1", "k2"))
    ok = (code == 0 and abs(payload["value"] - 1.0) <= TOL
          and best in {R2, R3})
    with capsys.disabled():
        report(2, ok, f"value={payload['value']} best={best}")


def test_criterion_3_threshold_oracle_equivalence(corpus, threshold_runs,
                                                  capsys):
    runs, elapsed = threshold_runs
    mismatches = []
    for entry, outcome in zip(corpus, runs):
        want = oracle_buckets(entry)
        got = (outcome.bucket_members(outcome.accepted),
               outcome.bucket_members(outcome.rejected),
               outcome.bucket_members(outcome.undefined))
        if want != got:
            mismatches.append(entry["seed"])
    with capsys.disabled():
        report(3, not mismatches and elapsed < 300.0,
               f"{len(corpus)} families, refinement loop {elapsed:.1f}s, "
               f"mismatched seeds: {mismatches or 'none'}")


def test_criterion_4_optimum_oracle_equivalence(corpus, capsys):
    t0 = time.perf_counter()
    bad = []
    for entry in corpus:
        family = entry["family"]
        jobs = [("probability", entry["prob_values"])]
        if entry["reward_values"] is not None and any(
                v != math.inf for v in entry["reward_values"]):
            jobs.append(("expected-reward", entry["reward_values"]))
        for kind, values in jobs:
            finite = [v for v in values if v != math.inf]
            for direction, run in (("max", max_synthesis),
                                   ("min", min_synthesis)):
                spec = Specification(kind=kind, goal="goal",
                                     direction=direction)
                out = run(family, spec, collect_trace=True)
                want = float(max(finite) if direction == "max"
                             else min(finite))
                if abs(out.best_value - want) > TOL:
                    bad.append((entry["seed"], kind, direction,
                                out.best_value, want))
                bounds = [r.best_value for r in out.trace
                          if r.best_value is not None]
                for a, b in zip(bounds, bounds[1:]):
                    monotone = b >= a - 1e-12 if direction == "max" \
                        else b <= a + 1e-12
                    if not monotone:
                        bad.append((entry["seed"], kind, direction,
                                    "bound not monotone"))
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(4, not bad, f"{elapsed:.1f}s, failures: {bad[:3] or 'none'}")


def test_criterion_5_sandwich_property(corpus, capsys):
    bad = []
    for entry in corpus:
        family = entry["family"]
        restricted = build_quotient(family).restrict(Subfamily.full(family))
        goal = family.label_states("goal")
        hi = solve_prob(restricted.mdp, goal, "max").at_initial
        lo = solve_prob(restricted.mdp, goal, "min").at_initial
        for v in entry["prob_values"]:
            if not (lo - TOL <= float(v) <= hi + TOL):
                bad.append((entry["seed"], float(v), lo, hi))
        if entry["reward_values"] is not None:
            rhi = solve_reward(restricted.mdp, goal, "max").at_initial
            rlo = solve_reward(restricted.mdp, goal, "min").at_initial
            for v in entry["reward_values"]:
                if v == math.inf:
                    continue
                if float(v) > rhi + TOL or rlo - TOL > float(v):
                    bad.append((entry["seed"], "reward", float(v), rlo, rhi))
    with capsys.disabled():
        report(5, not bad, f"failures: {bad[:3] or 'none'}")


def test_criterion_6_action_merging(corpus, example1, capsys):
    model, _ = example1
    quotient = build_quotient(model)
    ok = quotient.action_counts() == (2, 4, 2, 4) and quotient.n_actions == 12
    detail = f"worked example counts {quotient.action_counts()}"
    for entry in corpus:
        family = entry["family"]
        counts = build_quotient(family).action_counts()
        for s, count in enumerate(counts):
            bound = 1
            for k in family.support(s):
                bound *= len(family.domains[k])
            if count > bound:
                ok = False
                detail = f"seed {entry['seed']} state {s}: {count} > {bound}"
    with capsys.disabled():
        report(6, ok, detail)


def test_criterion_7_baseline_agreement(corpus, capsys):
    bad = []
    for entry in corpus[::2]:  # every second fixture keeps this quick
        family, spec = entry["family"], entry["spec"]
        exact = (entry["prob_values"] if spec.kind == "probability"
                 else entry["reward_values"])
        exact_f = [float(v) for v in exact]
        aio = all_in_one_check(family, spec)
        singleton_vals = []
        quotient = build_quotient(family)
        for r in all_realisations(family):
            restricted = quotient.restrict(Subfamily.of_realisation(r))
            goal = family.label_states("goal")
            if spec.kind == "probability":
                singleton_vals.append(
                    solve_prob(restricted.mdp, goal, "max").at_initial)
            else:
                singleton_vals.append(
                    solve_reward(restricted.mdp, goal, "max").at_initial)
        for name, got in (("all-in-one", aio.member_values),
                          ("singleton restriction", singleton_vals)):
            for e, g in zip(exact_f, got):
                same_inf = math.isinf(e) == math.isinf(g)
                if not same_inf or (not math.isinf(e) and abs(e - g) > TOL):
                    bad.append((entry["seed"], name, e, g))
    with capsys.disabled():
        report(7, not bad, f"failures: {bad[:3] or 'none'}")


def test_criterion_8_termination_and_near_optimal_speedup(corpus,
                                                          threshold_runs,
                                                          capsys):
    runs, _ = threshold_runs
    bound_ok = all(
        out.stats.iterations <= 2 * entry["family"].n_realisations - 1
        for entry, out in zip(corpus, runs))
    model, specs = parse_family(NEAR_OPTIMAL_DOC)
    out = threshold_synthesis(model, specs["phi"])
    fast = out.stats.iterations < 0.25 * model.n_realisations
    with capsys.disabled():
        report(8, bound_ok and fast,
               f"bound ok on corpus; near-optimal fixture took "
               f"{out.stats.iterations} iterations for "
               f"{model.n_realisations} members")


def test_criterion_10_numeric_oracle(corpus, capsys):
    bad = []
    for entry in corpus:
        family = entry["family"]
        goal = family.label_states("goal")
        for r, p in zip(all_realisations(family), entry["prob_values"]):
            mdp = mdp_from_mc(instantiate(family, r))
            value = solve_prob(mdp, goal, "max").at_initial
            if abs(value - float(p)) > TOL:
                bad.append((entry["seed"], "prob", value, float(p)))
        if entry["reward_values"] is None:
            continue
        for r, w in zip(all_realisations(family), entry["reward_values"]):
            mdp = mdp_from_mc(instantiate(family, r))
            value = solve_reward(mdp, goal, "min").at_initial
            if value != pytest.approx(float(w), abs=TOL):
                bad.append((entry["seed"], "reward", value, float(w)))
    with capsys.disabled():
        report(10, not bad, f"failures: {bad[:3] or 'none'}")
