"""Launch ``drbac serve`` in this process, optionally traced.

    python3 perfbench/server.py --trace 0|1 -- <drbac serve arguments>

Runs the production CLI entry point (``repro.cli.main(["serve", ...])``)
so the benchmark measures the server users start. With ``--trace 1``
span wrappers are installed first. On SIGINT the CLI shuts the service
down; this launcher then prints one JSON line with the process's peak
RSS and, when traced, every recorded span.
"""

import argparse
import ctypes
import json
import os
import resource
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def die_with_parent() -> None:
    """Ask Linux to SIGTERM this process when its parent exits, so a
    killed benchmark run leaves no server or pass behind."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]
    die_with_parent()

    from repro import cli
    recorder = None
    if args.trace:
        from tracing import SpanRecorder, install_service_layers
        recorder = SpanRecorder()
        install_service_layers(recorder)
    code = cli.main(["serve", *serve_args])
    report = {"peak_rss_kb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss}
    if recorder is not None:
        report["spans"] = recorder.spans
        report["counts"] = recorder.counts
        report["maxima"] = recorder.maxima
        report["decoded"] = list(recorder.decoded.items())
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
