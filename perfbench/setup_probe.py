"""Set-up time probe: a fresh process that imports nomagsc from the
checkout and builds one workload's inputs, then prints ``ready``, then
the mean duration of the speed kernel in this process (seconds).

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import statistics
import sys

import run

run.use_checkout_source()
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print("ready", flush=True)

import calibrate  # noqa: E402

speed = calibrate.SpeedProbe()
for _ in range(40):
    speed.sample()
print(statistics.fmean(speed.samples))
