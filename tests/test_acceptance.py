"""Acceptance gate: eleven numbered end-to-end checks, one verdict line each.

Every criterion prints exactly one line of the form
``ACCEPTANCE CRITERION k: PASS|FAIL — detail (elapsed, budget)`` (run pytest
with ``-s`` to see the lines for passing checks) and then asserts, so a red
line always carries its failure list.
"""

import hashlib
import json
import time

import numpy as np

from noisylab import mcsim
from noisylab.cli import main as cli_main
from noisylab.bounds import (
    binom_tail,
    lc_failure_lower,
    lc_success_lower,
    peer_failure_lower,
)
from noisylab.freqmodel import (
    build_prior,
    large_interval,
    tau_exact,
    tau_monte_carlo,
    weight_estimate,
)
from noisylab.memorize import LabelDist, memorization_error
from noisylab.mcsim import InstanceScenario, Treatment, bound_report, run_trials
from noisylab.noise import BinaryNoiseRates
from noisylab.treatments import (
    corrected_label,
    lc_empirical_loss,
    lc_loss_vector,
    peer_expected_loss,
    peer_vertex_check,
    smoothed_label,
)

GRID_L = (4, 10, 20, 50)
GRID_E = (0.1, 0.2, 0.3)


def _finish(number: int, failures: list, detail: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < budget
    line = (
        f"ACCEPTANCE CRITERION {number}: {'PASS' if ok else 'FAIL'} — "
        f"{detail} ({elapsed:.2f}s, budget {budget:g}s)"
    )
    print(line)
    assert ok, f"{line}; first failures: {failures[:5]}"


class TestAcceptance:
    def test_criterion_01_success_probability_dominates_its_lower_bound(self):
        started = time.perf_counter()
        failures = []
        for l in GRID_L:
            for e in GRID_E:
                exact = binom_tail(l, 1.0 - e, l // 2 + 1)
                bound = lc_success_lower(l, e)
                if exact < bound - 1e-9:
                    failures.append(f"l={l} e={e}: {exact} < {bound}")
        anchor_exact = binom_tail(10, 0.8, 6)
        anchor_bound = lc_success_lower(10, 0.2)
        if abs(anchor_exact - 0.9672065) > 5e-8:
            failures.append(f"anchor exact {anchor_exact} != 0.9672065")
        if abs(anchor_bound - 0.8347011) > 5e-8:
            failures.append(f"anchor bound {anchor_bound} != 0.8347011")
        _finish(
            1,
            failures,
            f"strict-majority success >= exp bound on {len(GRID_L) * len(GRID_E)} "
            f"grid points; anchor {anchor_exact:.7f} >= {anchor_bound:.7f}",
            started,
            budget=1.0,
        )

    def test_criterion_02_tie_inclusive_failure_dominates_its_lower_bound(self):
        started = time.perf_counter()
        failures = []
        for l in (4, 10, 20):  # even draw counts: the failure event needs an exact half
            for e in GRID_E:
                exact = binom_tail(l, e, l // 2)
                bound = lc_failure_lower(l, e)
                if exact < bound - 1e-9:
                    failures.append(f"l={l} e={e}: {exact} < {bound}")
        tie_inclusive = binom_tail(10, 0.2, 5)
        strict = binom_tail(10, 0.2, 6)
        bound = lc_failure_lower(10, 0.2)
        if abs(tie_inclusive - 0.0327935) > 5e-8:
            failures.append(f"anchor tie-inclusive {tie_inclusive} != 0.0327935")
        if abs(bound - 0.0240104) > 1e-6:
            failures.append(f"anchor bound {bound} != 0.0240104")
        if abs(strict - 0.0063694) > 5e-8:
            failures.append(f"anchor strict failure {strict} != 0.0063694")
        if not strict < bound:
            failures.append(
                f"strict failure {strict} should undershoot the bound {bound}"
            )
        _finish(
            2,
            failures,
            f"tie-inclusive failure >= KL bound on 9 even grid points; anchor "
            f"{tie_inclusive:.7f} >= {bound:.7f}; strict event {strict:.7f} < bound, "
            "so the bound only controls the tie-inclusive convention",
            started,
            budget=1.0,
        )

    def test_criterion_03_monte_carlo_agrees_with_exact_oracles(self):
        started = time.perf_counter()
        failures = []
        trials, seed = 100_000, 42
        events = 0
        representative = None
        for l in GRID_L:
            for e in GRID_E:
                scenario = InstanceScenario(l=l, y=1, e_plus=e, e_minus=e)
                report = bound_report(scenario, trials, seed)
                for check in report.checks:
                    denom = trials * l if check.treatment is Treatment.MEMORIZE else trials
                    se = np.sqrt(max(check.exact * (1.0 - check.exact), 0.0) / denom)
                    if abs(check.mc_estimate - check.exact) > 4.0 * se:
                        failures.append(
                            f"l={l} e={e} {check.treatment.value}/{check.event}: "
                            f"mc={check.mc_estimate} exact={check.exact} se={se}"
                        )
                    events += 1
                    if (
                        (l, e) == (10, 0.2)
                        and check.treatment is Treatment.LOSS_CORRECTION
                        and check.event == "strict_success"
                    ):
                        representative = check.mc_estimate
        if representative is None or abs(representative - 0.9672) > 0.005:
            failures.append(f"representative MC success {representative} not within 0.005 of 0.9672")
        _finish(
            3,
            failures,
            f"{events} MC event rates within 4 binomial SEs of their oracles at "
            f"{trials} trials; representative success rate {representative:.5f}",
            started,
            budget=10.0,
        )

    def test_criterion_04_corrected_label_algebra(self):
        started = time.perf_counter()
        failures = []
        rng = np.random.default_rng(4)
        cases = 10_000
        e_plus = rng.uniform(0.01, 0.8, size=cases)
        e_minus = rng.uniform(0.01, np.maximum(0.02, 0.96 - e_plus))
        draw_counts = rng.integers(1, 13, size=cases)
        wrong_counts = (rng.uniform(size=cases) * (draw_counts + 1)).astype(int)
        losses = rng.uniform(-3.0, 3.0, size=(cases, 2))
        label_cache = {}
        dist_cache = {}
        for l in range(1, 13):
            for w in range(l + 1):
                label_cache[(l, w)] = np.array([1] * (l - w) + [-1] * w)
                dist_cache[(l, w)] = LabelDist(np.array([w / l, (l - w) / l]))
        worst_sum = worst_identity = 0.0
        for i in range(cases):
            rates = BinaryNoiseRates(float(e_plus[i]), float(e_minus[i]))
            key = (int(draw_counts[i]), int(wrong_counts[i]))
            raw = corrected_label(dist_cache[key], rates).raw.probs
            worst_sum = max(worst_sum, abs(float(raw.sum()) - 1.0))
            empirical = lc_empirical_loss(label_cache[key], rates, losses[i])
            worst_identity = max(worst_identity, abs(empirical - float(raw @ losses[i])))
        if worst_sum > 1e-12:
            failures.append(f"corrected-label sum deviates by {worst_sum}")
        if worst_identity > 1e-10:
            failures.append(f"empirical-loss identity deviates by {worst_identity}")
        anchor_rates = BinaryNoiseRates(0.2, 0.2)
        anchor_labels = np.array([1, 1, -1])
        anchor_loss = np.array([2.0, 0.1])
        anchor_emp = lc_empirical_loss(anchor_labels, anchor_rates, anchor_loss)
        anchor_dot = float(
            corrected_label(
                LabelDist(np.array([1 / 3, 2 / 3])), anchor_rates
            ).raw.probs
            @ anchor_loss
        )
        for name, value in (("empirical route", anchor_emp), ("label route", anchor_dot)):
            if abs(value - 0.522222) > 5e-7:
                failures.append(f"anchor {name} {value} != 0.522222")
        _finish(
            4,
            failures,
            f"{cases} randomized cases: corrected labels sum to 1 within {worst_sum:.1e} "
            f"(tol 1e-12) and both loss routes agree within {worst_identity:.1e} "
            f"(tol 1e-10); anchor {anchor_emp:.6f}",
            started,
            budget=1.0,
        )

    def test_criterion_05_surrogate_loss_unbiasedness(self):
        started = time.perf_counter()
        failures = []
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(5_000):
            e_p = rng.uniform(0.0, 0.8)
            e_m = rng.uniform(0.0, max(1e-9, 0.98 - e_p))
            rates = BinaryNoiseRates(float(e_p), float(e_m))
            loss = rng.uniform(-5.0, 5.0, size=2)
            surrogate = lc_loss_vector(loss, rates)
            for y in (1, -1):
                idx = 1 if y == 1 else 0
                e_y = rates.rate_for(y)
                expectation = (1.0 - e_y) * surrogate[idx] + e_y * surrogate[1 - idx]
                worst = max(worst, abs(float(expectation) - float(loss[idx])))
        if worst > 1e-12:
            failures.append(f"noisy expectation deviates from the clean loss by {worst}")
        anchor = lc_loss_vector(np.array([2.0, 0.1]), BinaryNoiseRates(0.2, 0.2))
        anchor_value = 0.8 * anchor[1] + 0.2 * anchor[0]
        if abs(float(anchor_value) - 0.1) > 1e-12:
            failures.append(f"anchor expectation {anchor_value} != 0.1")
        _finish(
            5,
            failures,
            "surrogate's expectation under the exact noisy-label law reproduces the "
            f"clean loss for both labels over 5000 random (rates, loss) pairs within "
            f"{worst:.1e} (tol 1e-12); anchor {float(anchor_value):.12f}",
            started,
            budget=1.0,
        )

    def test_criterion_06_peer_loss_kl_decomposition(self):
        started = time.perf_counter()
        failures = []
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(1_000):
            n_x = int(rng.integers(1, 5))
            joint = rng.uniform(0.05, 1.0, size=(n_x, 2))
            joint /= joint.sum()
            predictor = rng.uniform(0.05, 1.0, size=(n_x, 2))
            predictor /= predictor.sum(axis=1, keepdims=True)
            decomposition = peer_expected_loss(joint, predictor, q_min=1e-3)
            gap = abs(
                decomposition.value
                - (decomposition.kl_model_vs_joint - decomposition.kl_model_vs_product)
            )
            worst = max(worst, gap)
        if worst > 1e-10:
            failures.append(f"KL decomposition identity deviates by {worst}")
        independent = np.outer([0.25, 0.75], [0.5, 0.5])
        predictor = np.array([[0.5, 0.5], [0.5, 0.5]])
        value = peer_expected_loss(independent, predictor, q_min=1e-3).value
        if value != 0.0:
            failures.append(f"independent joint should give exactly 0, got {value!r}")
        _finish(
            6,
            failures,
            "expected peer loss equals the difference of its two KL terms on 1000 "
            f"random joints within {worst:.1e} (tol 1e-10); independent joint gives "
            "exactly 0.0",
            started,
            budget=2.0,
        )

    def test_criterion_07_peer_objective_argmin_sits_on_the_boundary(self):
        started = time.perf_counter()
        failures = []
        rng = np.random.default_rng(7)
        q_min = 1e-3
        checked = 0
        for _ in range(1_000):
            p = float(rng.uniform())
            global_rate = float(rng.uniform())
            if abs(p - global_rate) <= 1e-9:
                continue
            dist = LabelDist(np.array([1.0 - p, p]))
            argmin = peer_vertex_check(dist, global_rate, grid_points=1001, q_min=q_min)
            expected = 1.0 - q_min if p > global_rate else q_min
            if argmin != expected:
                failures.append(
                    f"p={p} rate={global_rate}: argmin {argmin} not at boundary {expected}"
                )
            checked += 1
        _finish(
            7,
            failures,
            f"1001-point grid argmin of the peer objective landed on the correct "
            f"boundary in {checked}/1000 scenarios with a nonzero margin",
            started,
            budget=2.0,
        )

    def test_criterion_08_smoothing_loses_on_majorities_wins_on_minorities(self):
        started = time.perf_counter()
        failures = []
        rng = np.random.default_rng(8)
        strict_checked = 0
        for y in (1, -1):
            for a in (0.05, 0.1, 0.3):
                for e in GRID_E:
                    rates = BinaryNoiseRates(e, e)
                    for _ in range(200):
                        p_plus = float(rng.uniform())
                        if abs(p_plus - 0.5) <= 1e-9:
                            continue
                        dist = LabelDist(np.array([1.0 - p_plus, p_plus]))
                        err_lc = memorization_error(corrected_label(dist, rates).capped, y)
                        err_ls = memorization_error(smoothed_label(dist, a), y)
                        majority_correct = p_plus > 0.5 if y == 1 else p_plus < 0.5
                        if majority_correct and not err_ls > err_lc:
                            failures.append(
                                f"y={y} a={a} e={e} p={p_plus}: expected smoothing to "
                                f"lose, errors {err_ls} vs {err_lc}"
                            )
                        if not majority_correct and not err_ls < err_lc:
                            failures.append(
                                f"y={y} a={a} e={e} p={p_plus}: expected smoothing to "
                                f"win, errors {err_ls} vs {err_lc}"
                            )
                        strict_checked += 1
                    even = LabelDist(np.array([0.5, 0.5]))
                    err_lc = memorization_error(corrected_label(even, rates).capped, y)
                    err_ls = memorization_error(smoothed_label(even, a), y)
                    if err_lc != err_ls:
                        failures.append(f"y={y} a={a} e={e}: even split should tie exactly")
        _finish(
            8,
            failures,
            f"strict smoothing-vs-correction ordering held in {strict_checked} random "
            "majority/minority cases for both labels, with exact ties only at the even "
            "split",
            started,
            budget=1.0,
        )

    def test_criterion_09_importance_weight_lower_bounds(self):
        started = time.perf_counter()
        failures = []
        rng = np.random.default_rng(42)
        prior = build_prior("zipf", n=1000, exponent=1.1, cap=1.0 / 20.0)
        if float(prior.values.max()) > 1.0 / 20.0 + 1e-15:
            failures.append(f"prior max {prior.values.max()} exceeds 1/20")
        n = 10_000
        margins = []
        for l in (2, 10, 100, 1000):
            mc = tau_monte_carlo(prior, n, l, 10_000, rng)
            weight = weight_estimate(prior, large_interval(n, l), 10_000, rng)
            coeff = 0.4 * l * (l - 1.0) / (n * (n - 1.0))
            rhs = coeff * weight.value
            slack = 3.0 * (mc.stderr + coeff * weight.stderr)
            if mc.value < rhs - slack:
                failures.append(f"l={l}: mc tau {mc.value} < bound {rhs} - {slack}")
            margins.append(mc.value / rhs if rhs > 0 else np.inf)
        point_mass = build_prior("explicit", values=[0.001])
        for l in (2, 10, 100, 1000):
            exact = tau_exact(point_mass, n, l)
            if exact != 0.001:
                failures.append(f"point mass l={l}: tau {exact!r} != 0.001 exactly")
        _finish(
            9,
            failures,
            "MC importance weight cleared its lower bound at l=2,10,100,1000 "
            f"(ratios {', '.join(f'{m:.0f}x' for m in margins)}); point-mass prior "
            "returns its mass exactly",
            started,
            budget=60.0,
        )

    def test_criterion_10_peer_failure_rate_matches_its_oracle(self):
        started = time.perf_counter()
        failures = []
        scenario = InstanceScenario(l=10, y=1, e_plus=0.2, e_minus=0.2, p_plus=0.5)
        tally = run_trials(scenario, Treatment.PEER_LOSS, 100_000, seed=42)
        strict_rate = tally.failure / tally.trials
        if abs(strict_rate - 0.0063694) > 0.003:
            failures.append(f"MC strict failure {strict_rate} not within 0.003 of 0.0063694")
        bound = peer_failure_lower(10, 0.2)
        tie_inclusive = binom_tail(10, 0.2, 5)
        strict_exact = binom_tail(10, 0.2, 6)
        if abs(bound - 0.0240104) > 1e-6:
            failures.append(f"bound {bound} != 0.0240104")
        if abs(tie_inclusive - 0.0327935) > 5e-8:
            failures.append(f"tie-inclusive event {tie_inclusive} != 0.0327935")
        if tie_inclusive < bound - 1e-9:
            failures.append(f"tie-inclusive event {tie_inclusive} < bound {bound}")
        if not strict_exact < bound:
            failures.append(
                f"strict event {strict_exact} should undershoot the bound {bound}"
            )
        _finish(
            10,
            failures,
            f"balanced-prior peer decision: MC strict failure {strict_rate:.5f} vs exact "
            f"0.0063694; lower bound {bound:.7f} holds for the tie-inclusive event "
            f"{tie_inclusive:.7f} only",
            started,
            budget=5.0,
        )

    def test_criterion_11_sweep_reruns_are_byte_identical(self, tmp_path, monkeypatch):
        started = time.perf_counter()
        failures = []
        # three fixed chunks per scenario, so the 3-worker run fills its thread pool
        trials = 2 * mcsim._CHUNK_TRIALS + 1
        chunks = set()

        def recorded(key, l, e_y, chunk, count, bits, draw=mcsim._chunk_counts):
            chunks.add(chunk)
            return draw(key, l, e_y, chunk, count, bits)

        monkeypatch.setattr(mcsim, "_chunk_counts", recorded)
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps(
                {
                    "seed": 42,
                    "trials": trials,
                    "grid": {"l": list(GRID_L), "e": list(GRID_E), "base": {"y": 1}},
                }
            ),
            encoding="utf-8",
        )
        outputs = []
        for name, workers in (("a.csv", 1), ("b.csv", 3), ("c.csv", 1)):
            out = tmp_path / name
            code = cli_main(
                [
                    "sweep", "--config", str(config), "--out", str(out),
                    "--workers", str(workers),
                ]
            )
            if code != 0:
                failures.append(f"sweep run {name} exited {code}")
            outputs.append(out.read_bytes() if out.exists() else b"")
        if not (outputs[0] == outputs[1] == outputs[2]):
            failures.append("sweep outputs differ across reruns/worker counts")
        if chunks != {0, 1, 2}:
            failures.append(f"each scenario should span chunks 0..2, drew {sorted(chunks)}")
        # 20 one-chunk scenarios of 5,000 trials, all inverted (l <= 100, e_y <= 0.4), so
        # the calling thread draws them all at every worker count, whatever _THREAD_FLOOR is
        chunks.clear()
        config.write_text(
            json.dumps({"seed": 42, "trials": 5000, "grid": {
                "l": [4, 10, 20, 50, 100], "e": [0.1, 0.2, 0.3, 0.4], "base": {"y": 1}}}),
            encoding="utf-8",
        )
        digests = set()
        for workers in (1, 2, 4):
            out = tmp_path / f"grid-{workers}.csv"
            code = cli_main(["sweep", "--config", str(config), "--out", str(out),
                             "--workers", str(workers)])
            if code != 0:
                failures.append(f"one-chunk grid at {workers} workers exited {code}")
            digests.add(hashlib.sha256(out.read_bytes() if out.exists() else b"").hexdigest())
        if len(digests) != 1:
            failures.append(f"one-chunk grid CSVs differ across 1, 2 and 4 workers: {digests}")
        if chunks != {0}:
            failures.append(f"one-chunk grid should draw chunk 0 only, drew {sorted(chunks)}")
        rows = outputs[0].count(b"\n") - 1
        _finish(
            11,
            failures,
            f"sweep with seed 42 wrote {rows} identical rows across a rerun and a "
            f"worker-count change (byte-compared), {trials} trials in 3 chunks "
            "per scenario; a 20-scenario one-chunk grid has one SHA-256 at 1, 2 and 4 workers",
            started,
            budget=30.0,
        )
