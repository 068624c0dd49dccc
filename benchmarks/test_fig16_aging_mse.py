"""Benchmark: regenerate Fig. 16 (aging effect on estimation MSE).

Shape checks: the genie estimate degrades sharply with age and saturates
(Sec. 6.5); VVD starts higher but ages mildly, so the curves cross.
"""

from repro.experiments.figures import fig16


def test_fig16(benchmark, evaluation_bundle):
    result = benchmark.pedantic(
        fig16.generate, args=(evaluation_bundle,), rounds=1, iterations=1
    )
    assert result.genie_mse[0] < result.genie_mse[-1]
    genie_growth = result.genie_mse[-1] / result.genie_mse[0]
    vvd_growth = result.vvd_mse[-1] / max(result.vvd_mse[0], 1e-12)
    assert genie_growth > vvd_growth  # VVD ages more gracefully
    print("\n" + fig16.render(result))
