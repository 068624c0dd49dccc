"""Benchmark: regenerate Fig. 17 (aging effect on PER).

Shape checks: aging hurts the genie's PER much more than VVD's — the
paper reports a near-binary jump for the genie and a negligible effect
for VVD (Sec. 6.5).
"""

from repro.experiments.figures import fig17


def test_fig17(benchmark, evaluation_bundle):
    result = benchmark.pedantic(
        fig17.generate, args=(evaluation_bundle,), rounds=1, iterations=1
    )
    genie_delta = result.genie_per[-1] - result.genie_per[0]
    vvd_delta = abs(result.vvd_per[-1] - result.vvd_per[0])
    assert genie_delta >= 0
    assert genie_delta + 1e-9 >= vvd_delta
    print("\n" + fig17.render(result))
