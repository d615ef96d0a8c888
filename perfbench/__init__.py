"""The repository benchmark: host-side speed of the CWF DRAM simulator.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in fresh interpreters and prints every metric with its
unit, the output-check verdict, and a JSON summary as the last line. See
``perfbench/README.md`` for the workloads, layers and metric map.
"""
