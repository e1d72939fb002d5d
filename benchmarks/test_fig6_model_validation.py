"""Figure 6: validation of the processor model and measurements.

MAPE of (a) the analytical throughput model over the published ground-truth
mapping ("uops.info") and (b) the IACA-style vendor simulator, against
measurements on the SKL machine, for experiment lengths 1..N.

Paper shape: low error (<5%) at short lengths, growing with length for the
analytical model (optimal-scheduler assumption degrades), with IACA staying
flatter because it models the frontend and non-optimal scheduling.
"""

import numpy as np

from repro.analysis import format_table, mape
from repro.baselines import IACAPredictor, UopsInfoPredictor
from repro.core import Experiment
from repro.pmevo import random_experiments

from bench_lib import scaled, stratified_forms, write_result

MAX_LENGTH = 12


def test_fig6_model_error_vs_experiment_length(machines):
    machine = machines["SKL"]
    names = stratified_forms(machine, per_class=1, limit=scaled(20, minimum=10))
    per_length = scaled(60, minimum=15)

    oracle = UopsInfoPredictor(machine)
    iaca = IACAPredictor(machine)

    rows = []
    series: dict[str, list[float]] = {"uops.info": [], "iaca": []}
    for length in range(1, MAX_LENGTH + 1):
        if length == 1:
            experiments = [Experiment({name: 1}) for name in names]
        else:
            experiments = random_experiments(
                names, size=length, count=per_length, seed=1000 + length
            )
        measured = np.array([machine.measure(e) for e in experiments])
        oracle_pred = np.array([oracle.predict(e) for e in experiments])
        iaca_pred = np.array([iaca.predict(e) for e in experiments])
        mape_oracle = mape(oracle_pred, measured)
        mape_iaca = mape(iaca_pred, measured)
        series["uops.info"].append(mape_oracle)
        series["iaca"].append(mape_iaca)
        rows.append([length, f"{mape_oracle:.2f}%", f"{mape_iaca:.2f}%", len(experiments)])

    text = format_table(
        ["length", "MAPE uops.info", "MAPE IACA", "#experiments"],
        rows,
        title="Figure 6: simulation error vs experiment length (SKL)",
    )
    write_result("fig6_model_validation", text)

    # Paper shape assertions: short experiments fit the model well; the
    # analytical model degrades with length relative to its own short-
    # experiment accuracy.
    assert series["uops.info"][0] < 8.0
    assert max(series["uops.info"][6:]) >= series["uops.info"][0]
