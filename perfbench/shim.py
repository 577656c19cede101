"""Runs one hubbard-gf command as the console entry point does, and reports timings.

usage: python3 shim.py <stats.json> <trace 0|1> <src dir> -- <hubbard-gf arguments>

The stats file gets the time.monotonic() reading once `hubbard_gf.cli` is
imported and once `main` returns; CLOCK_MONOTONIC is system-wide on Linux, so
the launching process can subtract its own launch reading.  With trace 1 the
layer spans are recorded and written there too, on the same clock.
"""
import sys
import time

if __name__ == "__main__":
    stats_path, trace, src = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, src)
    from hubbard_gf import cli

    imported = time.monotonic()
    import json
    import os

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"error: hubbard_gf imported from {cli.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    recorder = None
    if trace:
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
        mono0, perf0 = time.monotonic(), time.perf_counter()
    rc = 1
    try:
        rc = cli.main(argv)
    finally:
        finished = time.monotonic()
        stats = {"imported": imported, "main_done": finished, "rc": rc}
        if recorder is not None:
            shift = mono0 - perf0
            stats["spans"] = [
                [name, start + shift, end + shift, parent, counters]
                for name, start, end, parent, counters in recorder.spans
            ]
        with open(stats_path, "w", encoding="utf-8") as f:
            json.dump(stats, f)
    sys.exit(rc)
