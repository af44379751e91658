"""End-to-end validation gate.

Each test drives one headline claim at desk scale, prints a PASS/FAIL
line with the measured numbers (collected again in the terminal
summary), and asserts the stated tolerance.  Monte Carlo tests run on
pinned seeds chosen once and never tuned per assertion; tolerances are
3-standard-error bands or the explicit figures in the docstrings.

Asymptotic statements that a desk-scale run cannot certify (iff
thresholds, TV -> 0 limits, lower bounds, the sparse-regime conjecture)
are exercised by the property suites and the regime-separation tests
here; the final test reports the sparse regime without asserting it.
"""

import math
import time

import numpy as np
from scipy import stats

from conftest import ACCEPTANCE_LINES
from netinfer import geom, sbm, trees, urns
from netinfer.graphcore import RngStream
from netinfer.harness import ks_distance, power_from_samples, replicate, two_arm


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# ------------------------------------------------------------------ sbm


def test_ch_divergence_closed_form_grid():
    """Symmetric two-rate profiles: D_+ = (sqrt(a) - sqrt(b))^2 / k on the
    full grid a, b in {0.5,1,2,4,9,16,25}, k in {2,3,4,6}; |err| <= 1e-8,
    under 1 second."""
    start = time.time()
    worst = 0.0
    for k in (2, 3, 4, 6):
        for a in (0.5, 1.0, 2.0, 4.0, 9.0, 16.0, 25.0):
            for b in (0.5, 1.0, 2.0, 4.0, 9.0, 16.0, 25.0):
                params = sbm.SbmParams.symmetric(k, a, b)
                prof = sbm.community_profiles(params)
                got = sbm.ch_divergence(prof[0], prof[1]).d_plus
                want = (math.sqrt(a) - math.sqrt(b)) ** 2 / k
                worst = max(worst, abs(got - want))
    elapsed = time.time() - start
    _report("ch-divergence closed form (196 grid points)",
            worst <= 1e-8 and elapsed < 1.0,
            f"max |error| {worst:.2e} (tol 1e-08), {elapsed:.2f}s")


def test_map_classifier_matches_brute_force():
    """map_classify equals the brute-force posterior argmax on every
    d in {0..20}^2 for 5 random parameter sets; under 1 second."""
    start = time.time()
    gen = np.random.default_rng(20260540)
    grid = [(x, y) for x in range(21) for y in range(21)]
    mismatches = 0
    for _ in range(5):
        k = int(gen.integers(2, 4))
        means = gen.uniform(0.2, 8.0, size=(k, 2))
        prior = gen.uniform(0.2, 1.0, size=k)
        prior /= prior.sum()
        log_prior = np.log(prior)
        for d in grid:
            scores = log_prior + stats.poisson.logpmf(
                np.asarray(d)[None, :], means).sum(axis=1)
            if sbm.map_classify(d, means, prior) != int(np.argmax(scores)):
                mismatches += 1
    elapsed = time.time() - start
    _report("MAP classifier vs brute-force argmax (5 x 441 points)",
            mismatches == 0 and elapsed < 1.0,
            f"{mismatches} mismatches, {elapsed:.2f}s")


def test_pairwise_error_exponent():
    """Two-hypothesis Poisson error at rates (2 ln n, 5 ln n) decays with
    exponent D_+; regression slope over n in {1e2..1e6} within 0.1 of
    -D_+; under 10 seconds."""
    start = time.time()
    ns = [10**2, 10**3, 10**4, 10**5, 10**6]
    errs = [sbm.pairwise_error([2 * math.log(n)], [5 * math.log(n)],
                               0.5, 0.5).value for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    d_plus = sbm.ch_divergence([2.0], [5.0]).d_plus
    elapsed = time.time() - start
    _report("pairwise-error exponent (rates 2 ln n vs 5 ln n)",
            abs(slope + d_plus) <= 0.1 and elapsed < 10.0,
            f"slope {slope:.4f} vs -D+ {-d_plus:.4f} "
            f"(tol 0.1), {elapsed:.2f}s")


def test_binomial_poisson_tv_bound():
    """Exact TV(Bin(na, b ln n / n), Poi(ab ln n)) never exceeds the
    2 a b^2 ln^2 n / n bound on 20 (n, a, b) combinations, and is
    positive whenever b > 0; under 5 seconds."""
    start = time.time()
    violations, zero_violations, worst_margin = 0, 0, -np.inf
    for n in (100, 10**3, 10**4, 10**5):
        for a, b in ((0.5, 2.0), (1.0, 1.0), (2.0, 0.5), (1.0, 0.0),
                     (3.0, 0.2)):
            res = sbm.lecam_tv(n, a, b)
            if res.tv > res.bound:
                violations += 1
            if b > 0 and not res.tv > 0:
                zero_violations += 1
            worst_margin = max(worst_margin, res.tv - res.bound)
    elapsed = time.time() - start
    _report("binomial-vs-Poisson TV bound (20 combinations)",
            violations == 0 and zero_violations == 0 and elapsed < 5.0,
            f"0 bound violations (worst tv-bound {worst_margin:.2e}), "
            f"tv > 0 whenever b > 0, {elapsed:.2f}s")


# ------------------------------------------------------------------ geom


def test_triangle_moments_monte_carlo():
    """Empirical mean and variance of the triangle count at n=30,
    p in {0.3, 0.5, 0.7}, 1e5 replicas, within 5% of the closed forms;
    under 2 minutes."""
    start = time.time()
    n, R = 30, 10**5
    rng = RngStream(20260501)
    worst = 0.0
    details = []
    for p in (0.3, 0.5, 0.7):
        vals = replicate(geom.graph_replica(n, p, "t"), R, rng)
        closed = geom.triangle_moments_er(n, p)
        dev_mean = abs(vals.mean() - closed.mean) / closed.mean
        dev_var = abs(vals.var(ddof=1) - closed.variance) / closed.variance
        worst = max(worst, dev_mean, dev_var)
        details.append(f"p={p}: {100 * dev_mean:.2f}%/{100 * dev_var:.2f}%")
        rng = RngStream(20260501 + int(10 * p))
    elapsed = time.time() - start
    _report("triangle count moments, 1e5-replica Monte Carlo",
            worst <= 0.05 and elapsed < 120.0,
            f"mean/var deviations {'; '.join(details)} (tol 5%), "
            f"{elapsed:.0f}s")


def test_signed_triangle_null_moments():
    """Signed triangle statistic under the matching edge density at
    (n=30, p=1/2), 1e5 replicas: mean within 3 se of 0 and variance
    within 5% of C(n,3) p^3 (1-p)^3."""
    start = time.time()
    n, R = 30, 10**5
    rng = RngStream(20260502)
    tau = replicate(geom.graph_replica(n, 0.5, "tau"), R, rng)
    target_var = math.comb(n, 3) * 0.5 ** 3 * 0.5 ** 3
    se = tau.std(ddof=1) / math.sqrt(R)
    dev_var = abs(tau.var(ddof=1) - target_var) / target_var
    elapsed = time.time() - start
    _report("signed-triangle null moments at (30, 1/2)",
            abs(tau.mean()) <= 3 * se and dev_var <= 0.05,
            f"mean {tau.mean():+.4f} (3se {3 * se:.4f}), "
            f"variance off by {100 * dev_var:.2f}% of {target_var:.4f} "
            f"(tol 5%), {elapsed:.0f}s")


def test_detection_power_by_regime():
    """tau-test power minus size >= 0.9 at (n=64, p=1/2, d=2) and
    <= 0.1 at (n=16, p=1/2, d=10*16^3), 1e3 replicas each; under
    5 minutes."""
    start = time.time()
    R = 1000

    def arms(n, p, d, seed):
        return power_from_samples(*two_arm(
            lambda s: geom.signed_triangle_stat(geom.sample_er(n, p, s), p),
            lambda s: geom.signed_triangle_stat(geom.sample_rgg(n, p, d, s), p),
            R, RngStream(seed)))

    low = arms(64, 0.5, 2, 20260503)
    high = arms(16, 0.5, 10 * 16**3, 20260504)
    sep_low = low.power - low.size
    sep_high = high.power - high.size
    elapsed = time.time() - start
    _report("detection regimes (d=2 vs d=10 n^3)",
            sep_low >= 0.9 and sep_high <= 0.1 and elapsed < 300.0,
            f"power-size {sep_low:.3f} at d=2 (>= 0.9), "
            f"{sep_high:.3f} at d=40960 (<= 0.1), {elapsed:.0f}s")


def test_wishart_matches_geometric_law():
    """tau samples from the sign-thresholded Wishart graph H(W(32,64))
    and from the sphere graph G(32, 1/2, 64) agree: two-sample KS < 0.05
    at 1e3 replicas per arm."""
    start = time.time()
    R, n, d = 1000, 32, 64
    w_tau, g_tau = two_arm(
        lambda s: geom.signed_triangle_stat(
            geom.h_map(geom.sample_wishart(n, d, rng=s)), 0.5),
        lambda s: geom.signed_triangle_stat(geom.sample_rgg(n, 0.5, d, s), 0.5),
        R, RngStream(11))
    ks = ks_distance(w_tau, g_tau)
    elapsed = time.time() - start
    _report("Wishart graph vs sphere graph tau law",
            ks < 0.05,
            f"two-sample KS {ks:.4f} (tol 0.05) at 1e3 per arm, "
            f"{elapsed:.0f}s")


def _tr_cubed_slope(entry_dist: str, seed: int):
    ds = (10**3, 10**4, 10**5)
    reps = (512, 512, 1536)
    rng = RngStream(seed)
    means, offset = [], 0
    for d, R in zip(ds, reps):
        vals = replicate(
            lambda s, dd=d: geom.tr_cubed(
                geom.sample_wishart(32, dd, entry_dist=entry_dist,
                                    kind="wishart_scaled_nodiag", rng=s)),
            R, rng.substream(offset), jobs=4)
        offset += R
        means.append(float(vals.mean()))
    return float(np.polyfit(np.log(ds), np.log(means), 1)[0]), means


def test_tr_cubed_scaling_gaussian():
    """Mean tr(A^3) of the scaled diagonal-free Wishart at n=32 falls
    like d^(-1/2): log-log slope over d in {1e3, 1e4, 1e5} within 0.1 of
    -0.5; the GOE analogue is centered at 0 within 3 se."""
    start = time.time()
    slope, means = _tr_cubed_slope("gaussian", 20260509)
    rng = RngStream(20260511)
    goe = replicate(
        lambda s: geom.tr_cubed(geom.sample_wishart(32, 64, kind="goe_nodiag",
                                                    rng=s)),
        400, rng, jobs=4)
    goe_se = goe.std(ddof=1) / math.sqrt(400)
    elapsed = time.time() - start
    _report("tr(A^3) scaling, gaussian entries",
            abs(slope + 0.5) <= 0.1 and abs(goe.mean()) <= 3 * goe_se,
            f"slope {slope:.4f} (target -0.5 +/- 0.1), "
            f"GOE mean {goe.mean():+.1f} (3se {3 * goe_se:.1f}), "
            f"{elapsed:.0f}s")


def test_tr_cubed_scaling_uniform_entries():
    """The same d^(-1/2) scaling with uniform (log-concave) entries in
    place of gaussians: only second moments should matter."""
    start = time.time()
    slope, means = _tr_cubed_slope("uniform-scaled", 20260510)
    elapsed = time.time() - start
    _report("tr(A^3) scaling, uniform-scaled entries",
            abs(slope + 0.5) <= 0.1,
            f"slope {slope:.4f} (target -0.5 +/- 0.1), {elapsed:.0f}s")


# ------------------------------------------------------------------ urns


def test_urn_limit_laws():
    """Terminal color fractions at n_final=1e4 over 1e3 runs: KS < 0.05
    against Beta(1,1), Beta(3,2), the Dirichlet marginal Beta(1,2), and
    the 2-per-step scaled law Beta(1/2,1/2); the exact beta-binomial pmf
    matches simulation with chi-squared p > 0.001."""
    start = time.time()
    cases = [
        ("Beta(1,1)", urns.UrnState.classic(1, 1), "beta"),
        ("Beta(3,2)", urns.UrnState.classic(3, 2), "beta"),
        ("Dir marginal Beta(1,2)", urns.UrnState.classic(1, 1, 1),
         "dirichlet"),
        ("scaled Beta(1/2,1/2)", urns.UrnState.k_per_step((1, 1), 2),
         "dirichlet_scaled"),
    ]
    ks_values = {}
    for label, state, law in cases:
        res = urns.limit_law_check(state, law, 10**4, 10**3,
                                   RngStream(20260512))
        ks_values[label] = res.ks
    n_draws, b, r, runs = 25, 2, 1, 20000
    counts = urns.urn_run_batch(urns.UrnState.classic(b, r), n_draws, runs,
                                RngStream(20260513))
    blue = (counts[0, :, 0] - b).astype(int)
    pmf = np.array([urns.beta_binomial_pmf(n_draws, b, r, k)
                    for k in range(n_draws + 1)])
    observed = np.bincount(blue, minlength=n_draws + 1)
    expected = pmf * runs
    _, p_value = stats.chisquare(observed,
                                 expected * observed.sum() / expected.sum())
    elapsed = time.time() - start
    ok = max(ks_values.values()) < 0.05 and p_value > 1e-3
    ks_text = ", ".join(f"{k} {v:.4f}" for k, v in ks_values.items())
    _report("urn limit laws at n_final=1e4",
            ok,
            f"KS {ks_text} (tol 0.05); beta-binomial chi2 p {p_value:.3f} "
            f"(> 0.001), {elapsed:.0f}s")


def test_triangular_urn_and_pa_degree_scaling():
    """sqrt(n)-scaled minority count of the triangular urn has settled:
    KS between n=1e3 and n=1e4 over 1e3 runs < 0.05; the first vertex of
    a preferential attachment tree gains degree like n^(1/2): log-log
    slope within 0.05 of 0.5."""
    start = time.time()
    tri = urns.UrnState(np.array([1, 1]),
                        np.asarray(urns.TRIANGULAR_REPLACEMENT))
    scaling = urns.triangular_urn_scaling(tri, [10**3, 10**4], 10**3,
                                          RngStream(20260514))
    ks = max(scaling.ks_consecutive)
    deg = trees.fixed_vertex_degree_scaling([10**3, 3 * 10**3, 10**4], 500,
                                            RngStream(20260515))
    elapsed = time.time() - start
    _report("triangular urn scaling and PA degree growth",
            ks < 0.05 and abs(deg.slope - 0.5) <= 0.05,
            f"KS(1e3 vs 1e4) {ks:.4f} (tol 0.05); degree slope "
            f"{deg.slope:.4f} (target 0.5 +/- 0.05), {elapsed:.0f}s")


# ------------------------------------------------------------------ trees


def test_root_finding_coverage():
    """Branch-weight confidence sets on uniform attachment at n=1e3 over
    1e3 replicas: K=58 (eps=0.1) succeeds at >= 0.5556 = 1 - 4 eps/(1-eps)
    and K=150 (eps=0.05) at >= 0.7895; under 2 minutes."""
    start = time.time()
    r58 = trees.root_finding_success("ua", 10**3, 58, 10**3,
                                     RngStream(20260516))
    r150 = trees.root_finding_success("ua", 10**3, 150, 10**3,
                                      RngStream(20260517))
    bound58 = 1 - 4 * 0.1 / 0.9
    bound150 = 1 - 4 * 0.05 / 0.95
    elapsed = time.time() - start
    _report("root-finding coverage at n=1e3",
            (r58.success_rate >= bound58 and r150.success_rate >= bound150
             and elapsed < 120.0),
            f"K=58 rate {r58.success_rate:.3f} (>= {bound58:.4f}); "
            f"K=150 rate {r150.success_rate:.3f} (>= {bound150:.4f}), "
            f"{elapsed:.0f}s")


def test_pa_root_leaf_probability():
    """Empirical probability that the first vertex is still a leaf in
    preferential attachment matches the exact degree-chain value within
    3 se at n in {6, 9, 12}; the closed-form product equals the dynamic
    program to 1e-12."""
    start = time.time()
    R = 4000
    worst_sigma, worst_formula = 0.0, 0.0
    for n in (6, 9, 12):
        # independent small-n oracle: step the degree distribution of the
        # first vertex, hitting it with probability deg / (2 (m - 1))
        dist = {1: 1.0}
        for m in range(2, n):
            nxt = {}
            for d, prob in dist.items():
                hit = d / (2.0 * (m - 1))
                nxt[d + 1] = nxt.get(d + 1, 0.0) + prob * hit
                nxt[d] = nxt.get(d, 0.0) + prob * (1.0 - hit)
            dist = nxt
        exact = dist.get(1, 0.0)
        worst_formula = max(worst_formula,
                            abs(exact - trees.root_leaf_probability("pa", n)))
        rng = RngStream(20260520 + n)
        hits = sum(trees.grow("pa", n, rng.substream(i)).degree(0) <= 1
                   for i in range(R))
        se = math.sqrt(exact * (1 - exact) / R)
        worst_sigma = max(worst_sigma, abs(hits / R - exact) / se)
    elapsed = time.time() - start
    _report("PA root-leaf probability vs exact chain",
            worst_sigma <= 3.0 and worst_formula <= 1e-12,
            f"worst |emp - exact| {worst_sigma:.2f} se (tol 3); "
            f"closed form vs chain {worst_formula:.1e}, {elapsed:.0f}s")


# ------------------------------------------------------- reported-only


def test_sparse_regime_reported_not_asserted():
    """Sparse-regime geometry detection at d ~ ln^3 n has no proven
    desk-scale guarantee, so its separation is reported without a
    threshold; the asymptotic iff statements, TV limits, and lower
    bounds are covered by the property suites and the regime tests
    above."""
    start = time.time()
    n, c = 3000, 4.0
    d_hard = round(math.log(n) ** 3)
    easy = geom.sparse_triangle_experiment(n, c, 2, 100, RngStream(20260541))
    hard = geom.sparse_triangle_experiment(n, c, d_hard, 100,
                                           RngStream(20260542))
    elapsed = time.time() - start
    _report("sparse regime (informational, no threshold)",
            True,
            f"power {easy.power:.2f} at d=2, {hard.power:.2f} at "
            f"d={d_hard}; asymptotic claims covered by property suites, "
            f"{elapsed:.0f}s")
