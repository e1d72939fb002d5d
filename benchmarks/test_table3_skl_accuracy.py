"""Table 3: prediction accuracy on port-mapping-bound experiments, SKL.

Paper values:

            MAPE    Pearson  Spearman
PMEvo       14.7%   0.98     0.85
uops.info    9.3%   0.92     0.88
IACA         8.0%   0.86     0.79
llvm-mca     9.7%   0.87     0.82
Ithemal     60.6%   0.35     0.54

Shape to reproduce: the four mapping-based predictors are tightly grouped
with high correlations (PMEvo competitive despite using only timing
measurements), while the learned-on-dependent-code baseline is far off.
"""

from repro.analysis import evaluate_predictor, format_table
from repro.baselines import (
    IACAPredictor,
    IthemalPredictor,
    LLVMMCAPredictor,
    TrainingConfig,
    UopsInfoPredictor,
)
from repro.throughput import MappingPredictor

from bench_lib import scaled, write_result


def test_table3_skl_accuracy(machines, pmevo_results, benchmark_sets):
    machine = machines["SKL"]
    bench = benchmark_sets["SKL"]

    pmevo = MappingPredictor(pmevo_results["SKL"].mapping, name="PMEvo")
    predictors = [
        pmevo,
        UopsInfoPredictor(machine),
        IACAPredictor(machine),
        LLVMMCAPredictor(machine),
        IthemalPredictor(
            machine, TrainingConfig(num_blocks=scaled(300, minimum=60), seed=3)
        ),
    ]

    reports = {p.name: evaluate_predictor(p, bench, "SKL") for p in predictors}
    rows = [
        [r.predictor, f"{r.mape:.1f}%", f"{r.pearson:.2f}", f"{r.spearman:.2f}"]
        for r in reports.values()
    ]
    text = format_table(
        ["predictor", "MAPE", "Pearson CC", "Spearman CC"],
        rows,
        title=f"Table 3: accuracy on SKL ({len(bench)} size-5 experiments)",
    )
    write_result("table3_skl_accuracy", text)

    # Shape assertions mirroring the paper's qualitative findings.
    mapping_based = ["PMEvo", "uops.info", "IACA", "llvm-mca"]
    for name in mapping_based:
        assert reports[name].mape < 30.0, name
        assert reports[name].pearson > 0.7, name
    # Ithemal (trained on dependency-heavy blocks) is far worse than every
    # mapping-based predictor on dependency-free experiments: much larger
    # relative error and worse experiment ranking.  (Our simulator is
    # cleaner than real silicon, so its Pearson CC lands higher than the
    # paper's 0.35 — block length alone correlates with cycles — but the
    # comparative claim is what Table 3 is about.)
    worst_mapping_mape = max(reports[n].mape for n in mapping_based)
    assert reports["Ithemal"].mape > 1.5 * worst_mapping_mape
    assert reports["Ithemal"].spearman < min(reports[n].spearman for n in mapping_based)
