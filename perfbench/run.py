"""Certification benchmark for the hypersecant command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout; it imports the package from ./src and needs
nothing outside the standard library.  Each workload is a fixed list of CLI
commands (WORKLOADS).  The seed picks the inner order, grevlex or lex, that
every command of the workload gets through ``--order``; the program receives
only argv.  PYTHONHASHSEED is fixed, so dict and set layouts, and the
timings that follow from them, do not change between runs.

Cold state: every command runs in a fresh interpreter (perfbench/runner.py),
so no CircularTermOrder or its key cache survives from one command to the
next, just as a CLI user pays that warm-up on every invocation.

With ``--trace 0`` the benchmark runs the workload's commands once per pass,
passes back to back as long as the next one should end within ``--seconds``
(at least one pass), and reports the median pass of the end-to-end metrics:

- wall_s: total time of the pass's ``cli.main`` calls;
- cpu_s: user plus system time of those calls, pool workers included;
- peak_rss_mb: largest resident set of any command process or pool worker;
- setup_s: median of several timed ``python3 -c 'import hypersecant.cli'``.

Every command's stdout is hashed and compared with perfbench/reference.json;
a nonzero exit or a different digest counts as a failed operation.

With ``--trace 1`` each command of a pass runs traced (perfbench/tracer.py)
and then untraced, and the benchmark reports per-layer metrics named
``<module>.<function>.<metric>`` (medians over the passes), plus the tracing
overhead, traced minus untraced wall time.  The spans are written to
perfbench/out/ at the end.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# On a shared 2-CPU machine one 20-30 s command varies by about 20% from run
# to run, so each workload measures at least 40 s: the two S-pair sweeps share
# one pass, and the certification and emission commands share a pass that
# runs several times.
WORKLOADS = {
    # The S-pair engine.  Secant n=7: few long reductions (up to 306 working
    # terms), where leading-term choice and Monomial building dominate.
    # Symbolic n=6 on two pool workers: many short reductions, where per-pair
    # overhead, pair criteria and pool chunking show.
    "buchberger": [
        ["verify", "buchberger", "--n", "7", "--kind", "secant", "--allow-large", "--format", "json"],
        ["verify", "buchberger", "--n", "6", "--kind", "symbolic", "--threads", "2", "--format", "json"],
    ],
    # No S-pair at all: the rank-2 oracle, masters, odd-cycle enumeration,
    # MonomialIdeal minimalization and derivatives (certification), then basis
    # assembly and 22 MB of JSON sorted by order.key (emission).  Changes to
    # the reduction engine must not move it.
    "certify-emit-n8": [
        ["verify", "delightful", "--n", "8", "--kind", "secant"],
        ["verify", "delightful", "--n", "8", "--kind", "symbolic"],
        ["verify", "prolongation", "--n", "7"],
        ["symbolic-gb", "--n", "8", "--format", "json"],
        ["secant-gb", "--n", "8", "--format", "json"],
    ],
}

# Set-up probes per timed run, half before and half after the passes, so the
# median spans the run rather than one moment of a shared machine.
SETUP_PROBES = 12
# A run must end within 180 s: no pass starts that should end after this
# deadline, and a command still running at it is killed and counted failed.
DEADLINE_S = 170.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def _total(span: str, field: str):
    return lambda agg: agg[span][field]


def _basis(field: str):
    return lambda agg: agg["groebner.secant_gb"][field] + agg["groebner.symbolic_square_gb"][field]


def _reduced_ratio(agg) -> float:
    bb = agg["groebner.buchberger_verify"]
    return bb["reduced"] / bb["count"] if bb["count"] else 0.0


# name, unit, better, value from the per-span aggregate of one traced pass
PER_LAYER = (
    ("groebner.buchberger_verify.s", "s", "lower", _total("groebner.buchberger_verify", "s")),
    ("groebner.buchberger_verify.child_cpu_s", "s", "lower", _total("groebner.buchberger_verify", "child_cpu_s")),
    ("groebner.spairs.count", "count", "lower", _total("groebner.buchberger_verify", "count")),
    ("groebner.spairs.skipped_coprime", "count", "higher", _total("groebner.buchberger_verify", "skipped_coprime")),
    ("groebner.spairs.reduced", "count", "lower", _total("groebner.buchberger_verify", "reduced")),
    ("groebner.spairs.reduced_ratio", "ratio", "lower", _reduced_ratio),
    ("groebner.spairs.max_terms", "terms", "lower", _total("groebner.buchberger_verify", "max_terms")),
    ("groebner.basis.s", "s", "lower", _basis("s")),
    ("groebner.basis.generators", "count", "lower", _basis("generators")),
    ("groebner.basis.terms", "terms", "lower", _basis("terms")),
    ("groebner.delightful_check.self_s", "s", "lower", _total("groebner.delightful_check", "self_s")),
    ("hypersimplex.in_secant_ideal.s", "s", "lower", _total("hypersimplex.in_secant_ideal", "s")),
    ("hypersimplex.in_secant_ideal.calls", "count", "lower", _total("hypersimplex.in_secant_ideal", "calls")),
    ("hypersimplex.in_toric_ideal.s", "s", "lower", _total("hypersimplex.in_toric_ideal", "s")),
    ("hypersimplex.in_toric_ideal.calls", "count", "lower", _total("hypersimplex.in_toric_ideal", "calls")),
    ("hypersimplex.MonomialIdeal.s", "s", "lower", _total("hypersimplex.MonomialIdeal", "s")),
    ("hypersimplex.MonomialIdeal.gens_in", "count", "lower", _total("hypersimplex.MonomialIdeal", "gens_in")),
    ("hypersimplex.MonomialIdeal.gens_kept", "count", "lower", _total("hypersimplex.MonomialIdeal", "gens_kept")),
    ("poly.substitute_rank.s", "s", "lower", _total("poly.substitute_rank", "s")),
    ("poly.substitute_rank.calls", "count", "lower", _total("poly.substitute_rank", "calls")),
    ("poly.partial_derivative.s", "s", "lower", _total("poly.partial_derivative", "s")),
    ("poly.partial_derivative.calls", "count", "lower", _total("poly.partial_derivative", "calls")),
    ("master.master_polynomial.s", "s", "lower", _total("master.master_polynomial", "s")),
    ("master.master_polynomial.calls", "count", "lower", _total("master.master_polynomial", "calls")),
    ("master.master_polynomial.terms", "terms", "lower", _total("master.master_polynomial", "terms")),
    ("master.verify_prolongation.s", "s", "lower", _total("master.verify_prolongation", "s")),
    ("noncrossing.induced_odd_cycles.s", "s", "lower", _total("noncrossing.induced_odd_cycles", "s")),
    ("noncrossing.induced_odd_cycles.cycles", "count", "lower", _total("noncrossing.induced_odd_cycles", "cycles")),
    ("noncrossing.induced_odd_cycles.subsets_examined", "count", "lower",
     _total("noncrossing.induced_odd_cycles", "subsets_examined")),
    ("noncrossing.symbolic_square_of_edge_ideal.s", "s", "lower",
     _total("noncrossing.symbolic_square_of_edge_ideal", "s")),
    ("noncrossing.admissible_sequences.s", "s", "lower", _total("noncrossing.admissible_sequences", "s")),
    ("order.leading_term.s", "s", "lower", _total("order.leading_term", "s")),
    ("order.leading_term.calls", "count", "lower", _total("order.leading_term", "calls")),
    ("cli.self_s", "s", "lower", _total("cli.main", "self_s")),
    ("cli.stdout_bytes", "bytes", "lower", _total("cli.main", "stdout_bytes")),
)


def inner_order(workload: str, seed: int) -> str:
    return random.Random(f"{workload}/{seed}").choice(("grevlex", "lex"))


def reference_key(argv: list[str]) -> str:
    """Digest key of a command: its argv without --threads, which must not change stdout."""
    kept, skip = [], False
    for tok in argv:
        if skip:
            skip = False
        elif tok == "--threads":
            skip = True
        else:
            kept.append(tok)
    return " ".join(kept)


class Bench:
    """One benchmark invocation: child environment, deadline and operation counts."""

    def __init__(self, digests: dict):
        self.digests = digests
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def _spawn(self, args: list[str]) -> tuple[int, str, str]:
        """Run a child in its own process group; kill the group if the deadline passes."""
        proc = subprocess.Popen(
            args, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            out, err = proc.communicate()
            err += "\nkilled: the run's deadline passed"
        return proc.returncode, out, err

    def setup_times(self, count: int) -> list[float]:
        """Wall times of interpreter start plus ``import hypersecant.cli``."""
        times = []
        for _ in range(count):
            t0 = time.perf_counter()
            code, _, err = self._spawn([sys.executable, "-c", "import hypersecant.cli"])
            times.append(time.perf_counter() - t0)
            if code != 0:
                raise SystemExit(f"error: cannot import hypersecant.cli from {SRC}:\n{err}")
        return times

    def command(self, argv: list[str], trace: bool) -> dict | None:
        """Run one CLI command in a fresh interpreter; None if it failed."""
        self.attempted += 1
        code, out, err = self._spawn(
            [sys.executable, str(HERE / "runner.py"), "1" if trace else "0", *argv]
        )
        result = None
        if code == 0:
            result = json.loads(out.splitlines()[-1])
            want = self.digests.get(reference_key(argv))
            if result["code"] != 0 or result["sha256"] != want:
                print(f"FAILED {' '.join(argv)}: exit {result['code']}, "
                      f"sha256 {result['sha256']} != reference {want}")
                result = None
        else:
            print(f"FAILED {' '.join(argv)}: runner exited {code}\n{err.strip()}")
        if result is None:
            self.failed += 1
        return result


def _kill_group(pgid: int) -> None:
    """SIGKILL a process group and wait, up to 10 s, until none of it is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)


def aggregate_spans(results: list[dict]) -> dict:
    """Per span name: total and self seconds, calls, and summed (max_* maxed) attrs."""
    agg: dict = defaultdict(lambda: defaultdict(int))
    for r in results:
        covered: dict = defaultdict(float)
        for sid, parent, name, t0, t1, attrs in r["spans"]:
            if parent is not None:
                covered[parent] += t1 - t0
        for sid, parent, name, t0, t1, attrs in r["spans"]:
            a = agg[name]
            a["s"] += t1 - t0
            a["self_s"] += t1 - t0 - covered[sid]
            a["calls"] += 1
            for key, value in attrs.items():
                a[key] = max(a[key], value) if key.startswith("max_") else a[key] + value
    return agg


def layer_metrics(results: list[dict]) -> dict:
    agg = aggregate_spans(results)
    values = {name: fn(agg) for name, _, _, fn in PER_LAYER}
    values["trace.spans"] = sum(len(r["spans"]) for r in results)
    return values


def write_spans(path: Path, run_id: str, traced: list[dict]) -> None:
    OUT.mkdir(exist_ok=True)
    spans = []
    for p, one_pass in enumerate(traced):
        for c, r in enumerate(one_pass["results"]):
            prefix = f"p{p}c{c}:"
            for sid, parent, name, t0, t1, attrs in r["spans"]:
                spans.append({
                    "run": run_id, "id": f"{prefix}{sid}",
                    "parent": None if parent is None else f"{prefix}{parent}",
                    "name": name, "start": t0, "end": t1, "attrs": attrs,
                })
    with open(path, "w") as fh:
        json.dump({"run": run_id, "spans": spans}, fh)


def repeat(run_pass, bench: Bench, seconds: float) -> list[dict] | None:
    """Passes back to back: at least one, and another only if it should end
    within ``seconds`` and well before the deadline, so a long pass never runs
    twice.  None if a pass failed."""
    started = time.perf_counter()
    passes: list[dict] = []
    last = 0.0
    while not passes or (
        time.perf_counter() - started + last <= seconds and bench.remaining() > last + 10
    ):
        t0 = time.perf_counter()
        p = run_pass()
        if p is None:
            return None
        passes.append(p)
        last = time.perf_counter() - t0
    return passes


def timed_pass(bench: Bench, commands: list[list[str]]) -> dict | None:
    results = [bench.command(argv, trace=False) for argv in commands]
    if any(r is None for r in results):
        return None
    p = {
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    each = " + ".join(f"{r['wall_s']:.2f}" for r in results)
    workers = sum(r["forks"] for r in results)
    print(f"  pass: wall_s {p['wall_s']:.3f} ({each})  cpu_s {p['cpu_s']:.3f}  "
          f"peak_rss_mb {p['peak_rss_mb']:.1f}  workers {workers}")
    return p


def traced_pass(bench: Bench, commands: list[list[str]]) -> dict | None:
    """Each command traced, then run untraced right after it for the overhead,
    unless the deadline leaves no room for that second run."""
    results, overhead, paired = [], 0.0, 0
    for argv in commands:
        traced = bench.command(argv, trace=True)
        if traced is None:
            return None
        if traced["missing"]:
            print(f"  warning: not traced, no longer found: {', '.join(traced['missing'])}")
        results.append(traced)
        if bench.remaining() > traced["wall_s"] + 10:
            plain = bench.command(argv, trace=False)
            if plain is None:
                return None
            overhead += traced["wall_s"] - plain["wall_s"]
            paired += 1
    metrics = layer_metrics(results)
    metrics["trace.overhead_s"] = overhead
    each = " + ".join(f"{r['wall_s']:.2f}" for r in results)
    print(f"  traced pass: wall_s {sum(r['wall_s'] for r in results):.3f} ({each})  "
          f"overhead_s {overhead:.3f} over {paired} of {len(commands)} commands  "
          f"workers {sum(r['forks'] for r in results)}")
    return {"results": results, "metrics": metrics}


def run_workload(bench: Bench, name: str, seed: int, seconds: float, trace: bool) -> dict:
    inner = inner_order(name, seed)
    commands = [argv + ["--order", f"inner={inner}"] for argv in WORKLOADS[name]]
    print(f"workload {name}  seed {seed}  order inner={inner}  trace {int(trace)}")
    for argv in commands:
        print(f"  hypersecant {' '.join(argv)}")
    if not trace:
        setup_times = bench.setup_times(SETUP_PROBES // 2)
        passes = repeat(lambda: timed_pass(bench, commands), bench, seconds)
        if passes is None:
            return {}
        setup_times += bench.setup_times(SETUP_PROBES - SETUP_PROBES // 2)
        values = {m: statistics.median(p[m] for p in passes) for m, _ in END_TO_END if m != "setup_s"}
        values["setup_s"] = statistics.median(setup_times)
        out = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    else:
        passes = repeat(lambda: traced_pass(bench, commands), bench, seconds)
        if passes is None:
            return {}
        units = {metric: unit for metric, unit, _, _ in PER_LAYER}
        units.update({"trace.spans": "count", "trace.overhead_s": "s"})
        out = {
            m: {"value": statistics.median(p["metrics"][m] for p in passes), "unit": unit}
            for m, unit in units.items()
        }
        for argv, r in zip(commands, passes[0]["results"]):
            for span in r["spans"]:
                if span[2] == "groebner.buchberger_verify":
                    print(f"  SPairStats of {' '.join(argv[:7])}: {span[5]}")
        path = OUT / f"trace-{name}-seed{seed}.json"
        write_spans(path, f"{name}-seed{seed}-{os.getpid()}", passes)
        print(f"  spans written to {path.relative_to(ROOT)}")
    print(f"  {len(passes)} pass(es)")
    for m, v in out.items():
        print(f"  {m} = {v['value']:.6g} {v['unit']}")
    return out


def self_check() -> int:
    """Show that a correct digest passes, and a corrupted digest and a nonzero exit fail."""
    argv = WORKLOADS["certify-emit-n8"][4] + ["--order", "inner=grevlex"]
    digests = json.loads((HERE / "reference.json").read_text())["digests"]
    key = reference_key(argv)
    good = digests[key]
    bad = good[:-1] + ("0" if good[-1] != "0" else "1")
    cases = (
        ("reference digest", {key: good}, argv, 0),
        ("corrupted digest", {key: bad}, argv, 1),
        ("nonzero exit", digests, argv[:2] + ["99"] + argv[3:], 1),
    )
    ok = True
    for label, table, cmd, want in cases:
        bench = Bench(table)
        bench.command(cmd, trace=False)
        verdict = "ok" if bench.failed == want else "WRONG"
        ok = ok and bench.failed == want
        print(f"self-check {label}: {bench.failed} of {bench.attempted} failed, expected {want}: {verdict}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not (SRC / "hypersecant" / "cli.py").is_file():
        print(f"error: no hypersecant sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    digests = json.loads((HERE / "reference.json").read_text())["digests"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        bench = Bench(digests)
        out = run_workload(bench, name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + m: v for m, v in out.items()})
        attempted += bench.attempted
        failed += bench.failed
    print(f"ops_failed {failed} of ops_total {attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
