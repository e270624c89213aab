"""Run one hypersecant command in this fresh interpreter and measure it.

    python3 perfbench/runner.py <trace 0|1> <hypersecant argv...>

perfbench/run.py starts one runner per command, with PYTHONPATH set to the
checkout's src/, so every command starts with cold per-order caches exactly as
a CLI user's does.  The runner calls ``hypersecant.cli.main(argv)`` with
stdout replaced by a sink that keeps only a SHA-256 and a byte count, then
prints one JSON object with the exit code, digest, wall and CPU time, peak RSS
and fork count (and, when tracing, the spans) on its real stdout.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

_CHUNK = 1 << 16


class DigestSink:
    """Write-only text stream that hashes what it is given and keeps none of it.

    It holds the same few bytes whatever the program writes, so capturing an
    18 MB payload does not move the peak RSS being measured.
    """

    def __init__(self):
        self.sha = hashlib.sha256()
        self.bytes = 0

    def write(self, text: str) -> int:
        for a in range(0, len(text), _CHUNK):
            chunk = text[a : a + _CHUNK].encode()
            self.sha.update(chunk)
            self.bytes += len(chunk)
        return len(text)

    def flush(self) -> None:
        pass


def _cpu_s(who: int) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def main(args: list[str]) -> int:
    trace, argv = args[0] == "1", args[1:]
    forks = [0]
    # Counted in the parent just before each fork: the pool's worker processes.
    os.register_at_fork(before=lambda: forks.__setitem__(0, forks[0] + 1))

    import hypersecant.cli as cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(lambda: forks[0])
        tracer.install()
    sink = DigestSink()
    real_stdout = sys.stdout
    self0, children0 = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    root = tracer.open("cli.main") if tracer else None
    sys.stdout = sink
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = real_stdout
        if tracer:
            tracer.close(root)
            tracer.uninstall()
    wall_s = time.perf_counter() - started
    # Pool workers are joined inside the command, so RUSAGE_CHILDREN has them.
    cpu_s = (
        _cpu_s(resource.RUSAGE_SELF) - self0
        + _cpu_s(resource.RUSAGE_CHILDREN) - children0
    )
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out = {
        "code": code,
        "sha256": sink.sha.hexdigest(),
        "stdout_bytes": sink.bytes,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024,
        "forks": forks[0],
    }
    if tracer:
        root[5]["stdout_bytes"] = sink.bytes
        out["spans"] = tracer.spans
        out["missing"] = tracer.missing
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
