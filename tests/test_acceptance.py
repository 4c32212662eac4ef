"""Acceptance gate: one test per shipped criterion, each printing a PASS/FAIL
line with the measured quantities.

Criteria 7 and 8 each contain one tolerance that the constructions cannot
meet (logarithmically slow tail decay; the companion notes document the
measured values).  Those assertions are kept exactly as stated and fail
honestly; every other clause in them is asserted and passes.
"""

import csv
import math
import time

import numpy as np

from lambdabv import (
    LambdaSequence,
    WitnessSpec,
    derivative_lp_norm,
    dual_extremizer,
    extremal_function,
    lambda_variation,
    modulus_p_continuity,
    monotone_arcs,
    p_cont_ratio_norm,
    p_variation,
    regularize_sequence,
    triangle_comb,
    wang_gap_family,
    wang_partial_sums,
)

from helpers import (
    brute_lambda_variation,
    brute_p_variation,
    random_comb_spec,
    random_lambda_prefix,
    random_plpf,
    run_cli,
)


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")


def test_acceptance_1_comb_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        spec = random_comb_spec(rng, max_teeth=64)
        f = triangle_comb(spec)
        h = np.asarray(spec.heights)
        w = spec.interval.length / spec.n_teeth
        for p in (1.0, 1.5, 2.0, 3.0):
            power_sum = float(np.sum(h**p) ** (1.0 / p))
            want_v = 2.0 ** (1.0 / p) * power_sum
            want_d = 2.0 * w ** -(1.0 - 1.0 / p) * power_sum
            got_v = p_variation(f, p)
            got_d = derivative_lp_norm(f, p)
            worst = max(
                worst,
                abs(got_v - want_v) / want_v,
                abs(got_d - want_d) / want_d,
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(1, ok, f"200 comb specs x 4 exponents, worst rel err {worst:.3g}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_acceptance_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(200):
        f = random_plpf(rng, max_breaks=5)
        lam = LambdaSequence.explicit(random_lambda_prefix(rng, 16))
        got = lambda_variation(f, lam)
        want = brute_lambda_variation(f, lam, f.positions)
        worst = max(worst, abs(got - want))
    for _ in range(200):
        f = random_plpf(rng, max_breaks=8)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        pos = list(f.positions)
        mids = [(a + b) / 2.0 % 1.0 for a, b in zip(pos, pos[1:] + [pos[0] + 1.0])]
        got = p_variation(f, p) ** p
        want = brute_p_variation(f, p, pos + mids)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(2, ok, f"200+200 brute-force comparisons, worst abs err {worst:.3g}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_acceptance_3_regularization_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    failures = 0
    for _ in range(1000):
        k = int(rng.integers(1, 40))
        a = rng.uniform(0.0, 1.0, k) * (rng.uniform(0.0, 1.0, k) < 0.7)
        if not np.any(a > 0.0):
            a[int(rng.integers(0, k))] = float(rng.uniform(0.1, 1.0))
        for theta, gamma in ((2.0, 0.5), (1.5, 1.0)):
            beta = np.asarray(regularize_sequence(a, theta, gamma))
            c = theta ** (1.0 + gamma) / ((theta - 1.0) * (theta**gamma - 1.0))
            ok1 = bool(np.all(a <= beta + 1e-15))
            ok2 = beta.sum() <= c * a.sum() * (1.0 + 1e-12)
            if k > 1:
                rat = beta[1:] / beta[:-1]
                ok3 = bool(np.all(rat >= theta**-gamma - 1e-12) and np.all(rat <= theta + 1e-12))
            else:
                ok3 = True
            if not (ok1 and ok2 and ok3):
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 5.0
    _report(3, ok, f"1000 prefixes x 2 parameter pairs, {failures} failures, {elapsed:.2f}s")
    assert failures == 0
    assert elapsed < 5.0


def test_acceptance_4_duality_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 20))
        x = rng.uniform(0.001, 5.0, m)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        q = p / (p - 1.0)
        u = dual_extremizer(x, p)
        norm_err = abs(float(np.sum(u**q)) - 1.0)
        pair_err = abs(float(np.sum(u * x)) - float(np.sum(x**p) ** (1.0 / p)))
        worst = max(worst, norm_err, pair_err / max(1.0, float(np.sum(x**p) ** (1.0 / p))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 2.0
    _report(4, ok, f"1000 extremizers, worst identity err {worst:.3g}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 2.0


def test_acceptance_5_modulus_inequalities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1005)
    violations = 0
    for _ in range(500):
        f = random_plpf(rng, max_breaks=8)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        delta = 2.0 ** -int(rng.integers(0, 7))
        lam_terms = random_lambda_prefix(rng, 32)
        lam = LambdaSequence.explicit(lam_terms)

        omega = modulus_p_continuity(f, p, [delta], 1)[0]
        if omega > derivative_lp_norm(f, p) * delta ** (1.0 - 1.0 / p) + 1e-9:
            violations += 1
        if abs(modulus_p_continuity(f, p, [1.0])[0] - p_variation(f, p)) > 1e-9:
            violations += 1
        k = max(len(monotone_arcs(f)), 1)
        q = p / (p - 1.0)
        cap = p_variation(f, p) * float(np.sum(lam_terms[:k] ** -q) ** (1.0 / q))
        if lambda_variation(f, lam) > cap + 1e-9:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    _report(5, ok, f"500 function/delta/weight combos, {violations} violations, {elapsed:.2f}s")
    assert violations == 0
    assert elapsed < 60.0


def test_acceptance_6_witness_sharpness_band():
    t0 = time.perf_counter()
    p, alpha = 2.0, 0.75
    lam = LambdaSequence.power(1.0 - alpha)
    r_prime = 1.0 / (1.0 + 1.0 / p - alpha)
    quotients = []
    omega_values = {}
    for levels in range(4, 11):
        comb = rep = extremal_function(WitnessSpec(lam, p, alpha, levels))[-1]
        g = comb.function()
        crit = rep.criterion_partials[-1] ** (1.0 / r_prime)
        quotients.append(lambda_variation(g, lam) / crit)
        omega_values[levels] = p_cont_ratio_norm(g, p, alpha, 6)
    band = min(quotients) / max(quotients)
    omega_factor = omega_values[10] / omega_values[4]
    elapsed = time.perf_counter() - t0
    ok = band >= 0.2 and omega_factor <= 2.0 and elapsed < 120.0
    _report(
        6,
        ok,
        f"levels 4..10: quotient band {band:.4f} (needs >= 0.2), "
        f"omega ratio growth {omega_factor:.4f} (needs <= 2), {elapsed:.2f}s",
    )
    assert band >= 0.2
    assert omega_factor <= 2.0
    assert elapsed < 120.0


def test_acceptance_7_wang_refutation_demo():
    t0 = time.perf_counter()
    p, alpha, s = 2.0, 0.75, 2.0
    fam = wang_gap_family(p, alpha, s)

    wang = wang_partial_sums(fam, alpha, 31).partial_sums
    wang_tail = wang[30] - wang[19]

    from lambdabv import criterion_partial_sums

    crit = criterion_partial_sums(fam, p, alpha, 30).partial_sums
    crit_growth = crit[30] - crit[20]

    vlams = []
    omegas = {}
    for levels in range(4, 11):
        comb = extremal_function(WitnessSpec(fam, p, alpha, levels))[-1]
        g = comb.function()
        vlams.append(lambda_variation(g, fam))
        omegas[levels] = p_cont_ratio_norm(g, p, alpha, 6)
    strictly_up = all(b > a for a, b in zip(vlams, vlams[1:]))
    omega_factor = omegas[10] / omegas[4]
    elapsed = time.perf_counter() - t0

    assert elapsed < 120.0
    assert crit_growth >= 0.5, crit_growth
    assert strictly_up, vlams
    assert omega_factor <= 2.0, omega_factor

    ok = wang_tail < 1e-3
    _report(
        7,
        ok,
        f"wang tail over blocks 20..30 = {wang_tail:.6g} (stated bound 1e-3; "
        f"the block sums are m^-2, so the tail is ~0.0185 by calculus and the "
        f"stated tolerance is unattainable), criterion growth {crit_growth:.4f} >= 0.5, "
        f"witness column strictly increasing, omega factor {omega_factor:.4f}, {elapsed:.2f}s",
    )
    assert wang_tail < 1e-3


def test_acceptance_8_perlman_companions():
    t0 = time.perf_counter()
    from lambdabv import perlman_witness

    # (sum d_n/lambda_n, sum lambda_n^-2) at N = 10^5 and 10^6, d_n = n^-0.5
    sums = perlman_witness(0.5, 2.0, [10**5, 10**6])
    div_inc, conv_inc = (sums[1] - sums[0]).tolist()
    elapsed = time.perf_counter() - t0

    assert elapsed < 30.0
    assert div_inc >= 0.05, div_inc

    ok = conv_inc < 1e-4
    _report(
        8,
        ok,
        f"divergent companion +{div_inc:.4f} >= 0.05 over the last decade; "
        f"convergent companion +{conv_inc:.6g} (stated bound 1e-4; the tail is "
        f"~1/log N, so the last-decade increment is ~0.013 by calculus and the "
        f"stated tolerance is unattainable), {elapsed:.2f}s",
    )
    assert conv_inc < 1e-4


def test_acceptance_9_cli_determinism(tmp_path):
    lam_path = tmp_path / "lam.json"
    lam_path.write_text('{"family": "power", "params": {"s": 1.0}}\n')
    tri_path = tmp_path / "tri.json"
    tri_path.write_text('{"breakpoints": [[0.0, 0.0], [0.5, 1.0]]}\n')

    configs = [
        ("variation", ["--function", str(tri_path), "--sequence", str(lam_path)]),
        ("criterion", ["--sequence", str(lam_path), "--blocks", "10"]),
        ("sharpness", ["--sequence", str(lam_path), "--levels", "3", "--delta-depth", "4"]),
        ("wang-demo", ["--blocks", "10"]),
        ("perlman-demo", []),
        ("hardy-demo", ["--seed", "11"]),
    ]
    mismatches = []
    for name, extra in configs:
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            proc = run_cli("--command", name, *extra, "--out", str(out))
            assert proc.returncode == 0, (name, proc.stderr)
            outs.append((out / f"{name}.csv").read_bytes())
        if outs[0] != outs[1]:
            mismatches.append(name)
    ok = not mismatches
    _report(9, ok, f"6 commands rerun, byte-identical CSV: {'yes' if ok else mismatches}")
    assert not mismatches
