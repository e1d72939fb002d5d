"""Table 4: prediction accuracy on ZEN and A72 (PMEvo vs llvm-mca).

Paper values:

                  MAPE    Pearson  Spearman
PMEvo (ZEN)       13.5%   0.94     0.87
llvm-mca (ZEN)    50.8%   0.86     0.54
PMEvo (A72)       21.4%   0.68     0.77
llvm-mca (A72)    65.3%   0.67     0.68

Shape to reproduce: PMEvo beats llvm-mca's hand-tuned models by a wide
margin on both non-Intel machines; llvm-mca over-estimates heavily; A72 is
the harder target (weaker OOO engine makes experiments less representative
of the port mapping).
"""

import numpy as np

from repro.analysis import evaluate_predictor, format_table
from repro.baselines import LLVMMCAPredictor
from repro.throughput import MappingPredictor

from bench_lib import write_result


def test_table4_zen_a72_accuracy(machines, pmevo_results, benchmark_sets):
    rows = []
    reports = {}
    for name in ("ZEN", "A72"):
        machine = machines[name]
        bench = benchmark_sets[name]
        pmevo = MappingPredictor(pmevo_results[name].mapping, name="PMEvo")
        mca = LLVMMCAPredictor(machine)
        for predictor in (pmevo, mca):
            report = evaluate_predictor(predictor, bench, name)
            reports[(predictor.name, name)] = report
            rows.append(
                [
                    f"{report.predictor} ({name})",
                    f"{report.mape:.1f}%",
                    f"{report.pearson:.2f}",
                    f"{report.spearman:.2f}",
                ]
            )

    text = format_table(
        ["predictor", "MAPE", "Pearson CC", "Spearman CC"],
        rows,
        title="Table 4: accuracy on ZEN and A72",
    )
    write_result("table4_zen_a72_accuracy", text)

    for name in ("ZEN", "A72"):
        pmevo_report = reports[("PMEvo", name)]
        mca_report = reports[("llvm-mca", name)]
        # The headline result: PMEvo's inferred mapping is considerably
        # more accurate than llvm-mca's hand-tuned model.  (Absolute PMEvo
        # accuracy at this scale varies with the noise/EA seeds — observed
        # 14-36% MAPE on ZEN across runs — but the gap to llvm-mca never
        # closes; see EXPERIMENTS.md.)
        assert pmevo_report.mape < 0.6 * mca_report.mape, name
        assert pmevo_report.mape < 40.0, name
        assert mca_report.mape > 25.0, name
        # llvm-mca's failure mode is over-estimation (Figure 7).
        over = np.mean(
            np.array(mca_report.predicted) > np.array(mca_report.measured) * 1.05
        )
        assert over > 0.4, name
