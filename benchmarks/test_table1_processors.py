"""Table 1: evaluated processors.

Prints the preset machines' parameters in the paper's layout.  The paper's
row "RAM" has no analogue in a simulator and is replaced by the simulated
backend shape.
"""

from repro.analysis import format_kv_rows

from bench_lib import write_result


def test_table1_processors(machines):
    columns = {}
    for name in ("SKL", "ZEN", "A72"):
        machine = machines[name]
        config = machine.config
        port_note = {
            "SKL": "8 + DIV",
            "ZEN": "10",
            "A72": "7 (BR omitted)",
        }[name]
        columns[name] = {
            "Microarch. (styled on)": {
                "SKL": "Skylake",
                "ZEN": "Zen+",
                "A72": "Cortex-A72",
            }[name],
            "# Ports": port_note,
            "Instr. set": config.isa.name,
            "# Instr. forms": len(config.isa),
            "Clock freq.": f"{config.clock_ghz:.1f} GHz",
            "Dispatch width": config.frontend.dispatch_width,
            "Scheduler window": config.backend.scheduler_window,
        }
    text = format_kv_rows(columns, title="Table 1: evaluated (simulated) processors")
    write_result("table1_processors", text)
