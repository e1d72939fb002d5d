"""Table 2: PMEvo mapping characteristics.

For each machine: benchmarking time, inference time, fraction of
instructions found congruent, and the number of distinct µops in the
inferred mapping.  Paper values (310-390 forms, population 100 000):

              SKL    ZEN    A72
benchmarking  20h    27h    74h
inference      5h    21h    12h
congruent     69%    53%    56%
#uops          17     15      9

Our run is scaled down (fewer forms, smaller population), so the time rows
are seconds, not hours; the congruent fraction and µop count are the
shape-comparable rows.
"""

from repro.analysis import format_kv_rows

from bench_lib import write_result


def test_table2_mapping_characteristics(pmevo_results):
    columns = {}
    for name in ("SKL", "ZEN", "A72"):
        result = pmevo_results[name]
        columns[name] = dict(result.table2_row())
        columns[name]["D_avg (training)"] = f"{result.evolution.davg:.3f}"
        columns[name]["generations"] = result.evolution.generations
        columns[name]["instruction forms"] = result.partition.num_instructions
    text = format_kv_rows(columns, title="Table 2: PMEvo mapping characteristics")
    write_result("table2_characteristics", text)

    for name, result in pmevo_results.items():
        # The paper finds 53%-69% congruent; class-structured ISAs must
        # yield substantial filtering here too.
        assert result.congruent_fraction >= 0.35, name
        # Compact mappings: a handful of distinct µops, not hundreds.
        assert result.num_uops <= 40, name
