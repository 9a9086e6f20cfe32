"""Workload process for the funcdecomp benchmark.

Imports ``funcdecomp.cli``, prints ``ready``, then reads one JSON request
per line from stdin, ``{"argv": [...], "trace": bool}``, runs
``funcdecomp.cli.main(argv)`` in process and answers with one JSON line:
``{"wall_s", "cal_s", "rc", "error"}``.  Untraced operations run under a
``calibration.SpeedSampler``: ``wall_s`` excludes its slices and ``cal_s``
is their mean time (None for traced operations).  When stdin closes it
answers with its peak resident set size and the per-operation span
summaries of the traced requests, then exits.  With ``--probe`` it exits right after ``ready``; the
benchmark times that to measure set-up.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    protocol = sys.stdout
    sys.stdout = sys.stderr  # reports go to -o files; keep stdout for the protocol

    src = os.path.realpath(os.environ["FUNCDECOMP_SRC"])
    from funcdecomp import cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"imported {cli.__file__}, not the sources under {src}\n")
        return 2
    protocol.write("ready\n")
    protocol.flush()
    if "--probe" in sys.argv[1:]:
        return 0

    from calibration import SpeedSampler
    from tracing import Tracer, summarize

    tracer = Tracer()
    traced_ops: list[tuple[int, int]] = []  # (request index, first span index)
    for index, line in enumerate(sys.stdin):
        request = json.loads(line)
        sampler = None
        if request["trace"]:
            traced_ops.append((index, len(tracer.spans)))
            tracer.install()
        else:
            sampler = SpeedSampler()
            sampler.start()
        rc, error = None, None
        start = time.perf_counter()
        try:
            rc = cli.main(request["argv"])
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        tracer.uninstall()
        wall, cal = end - start, None
        if sampler is not None:
            sampler.stop()
            wall -= sampler.inside(start, end)
            cal = sampler.mean()
        protocol.write(json.dumps({"wall_s": wall, "cal_s": cal, "rc": rc, "error": error}) + "\n")
        protocol.flush()

    bounds = [first for _, first in traced_ops] + [len(tracer.spans)]
    layers = [
        [index, summarize(tracer.spans, first, stop)]
        for (index, first), stop in zip(traced_ops, bounds[1:])
    ]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    protocol.write(json.dumps({"peak_rss_kib": peak_kib, "layers": layers}) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
