"""Benchmark: regenerate Fig. 11 (VVD and Kalman variant PER).

Shape checks: fresher images estimate better (VVD-Current <= VVD-100ms
Future on average); Kalman variants perform similarly (the channel is
nearly memoryless, Sec. 6.1).

This bench trains three separate VVD variants, so it runs on a single
combination by default.
"""

from repro.experiments.figures import fig11


def test_fig11(benchmark, evaluation_bundle):
    # One round: each call retrains three CNNs (~50 s).
    result = benchmark.pedantic(
        fig11.generate,
        args=(
            evaluation_bundle.runner,
            evaluation_bundle.combinations[:1],
            evaluation_bundle.config,
        ),
        rounds=1,
        iterations=1,
    )
    vvd_means = {n: s.mean for n, s in result.vvd.items()}
    kalman_means = [s.mean for s in result.kalman.values()]
    assert (
        vvd_means["VVD-Current"]
        <= vvd_means["VVD-100ms Future"] + 0.05
    )
    spread = max(kalman_means) - min(kalman_means)
    assert spread < 0.1  # AR(1) ~ AR(5) ~ AR(20)
    print("\n" + fig11.render(result))
