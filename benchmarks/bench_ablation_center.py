"""ABL-CTR — region-centre estimator ablation (ours).

The paper takes "the center point of the region" from CVX's interior-point
(log-barrier) solve.  This ablation compares the exact polygon centroid
with that analytic centre.  Expected shape: both land in the same accuracy
class (the choice of centre is not what makes NomLoc work); the exact
centroid is never much worse than the analytic centre.
"""

from repro.eval import ablation_center_methods, format_stats_table

from conftest import run_once


def test_ablation_center_methods(benchmark, save_result):
    out = run_once(benchmark, ablation_center_methods, "lab")

    means = {name: stats.mean for name, stats in out.items()}
    assert set(means) == {"centroid", "analytic"}
    # Same accuracy class: spread of means below a metre.
    assert max(means.values()) - min(means.values()) < 1.0, means
    # Everything stays meter-scale in the Lab.
    assert all(m < 3.0 for m in means.values()), means

    save_result("ABL-CTR", format_stats_table(out))
