"""Online partition switching under a load spike (paper Figure 11).

Drives the *concurrent serving engine*: a population of closed-loop
TPC-C clients runs against the partitioned runtime; a third of the way
in, an external tenant occupies most of the database server's cores.
The adaptive controller polls DB CPU on the virtual clock, smooths it
with an EWMA (alpha = 0.2), and switches from the stored-procedure-like
partition to the JDBC-like partition when the estimate crosses 40% --
the switch event lands in the controller history.

Every transaction trace in circulation was produced by executing the
real compiled-block program (see repro.serve.workload.LiveWorkload).

Run:  PYTHONPATH=src python examples/dynamic_switching.py
"""

from repro.bench.serve_experiments import ADAPTIVE, serve_dynamic_switching
from repro.bench.report import format_serve_switching


def main(fast: bool = True) -> None:
    result = serve_dynamic_switching(fast=fast)
    print(format_serve_switching(result))
    print()
    print("Reading the table: before the load spike the adaptive "
          "configuration tracks\nstatic_high (low latency, 0% JDBC-like); "
          "after the spike the mix flips to\n100% JDBC-like and adaptive "
          "latency settles near static_low's while\nstatic_high degrades.")
    print()
    adaptive = result.runs[ADAPTIVE]
    # Option 0 is the JDBC-like partition (the lowest budget).
    mix = adaptive.option_mix(result.bucket)
    mix_start = mix[0][1].get(0, 0.0)
    mix_end = mix[-1][1].get(0, 0.0)
    print(f"JDBC-like fraction: {mix_start * 100:.0f}% -> "
          f"{mix_end * 100:.0f}%")
    assert adaptive.controller is not None
    if adaptive.controller.switches == 0:
        raise SystemExit("expected at least one partition switch")


if __name__ == "__main__":
    main()
