"""Command line of the benchmark.

    python -m bench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
    python -m bench run --traced ...
    python -m bench compare --parent P1.json ... --change C1.json ...

``run`` runs each workload in a fresh child process from the root of a
checkout, prints every metric by name and unit, writes the full report
under ``.bench/`` and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits
non-zero if a correctness check fails or the checkout has no sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from bench import hostspeed, metrics
from bench.compare import compare

#: Each workload child must finish within this many seconds.
CHILD_TIMEOUT_S = 170


def host_info(root: Path) -> Dict[str, Any]:
    """Cores, CPU model, python, numpy and the git commit of ``root``."""
    info: Dict[str, Any] = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": platform.processor() or platform.machine(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        from importlib.metadata import version
        info["numpy"] = version("numpy")
    except Exception:                         # metadata missing: report, continue
        info["numpy"] = "unknown"
    info["git_sha"] = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        info["git_sha"] = ref
    return info


def child_env(root: Path) -> Dict[str, str]:
    """The environment of every child: the checkout's sources on the
    path, and no ``REPRO_*`` setting leaking in from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    return env


def run_workload(name: str, args: argparse.Namespace, root: Path,
                 workdir: Path) -> Dict[str, Any]:
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "result.json"
    env = child_env(root)
    env["REPRO_RUNCACHE_DIR"] = str(workdir / "cache")
    probe = hostspeed.probe()
    t_launch = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.workloads", name, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--t-launch", repr(t_launch), "--probe", repr(probe),
         "--workdir", str(workdir), "--out", str(out)],
        cwd=root, env=env, stdout=sys.stderr, start_new_session=True,
    )
    code: Any = "timeout"
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        # A child that overran (or an interrupted run) takes the servers
        # it started down with it: they share its process group.
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0 or not out.is_file():
        return {"error": f"workload child exited with {code}", "correct": False,
                "attempted": 0, "failed": 0, "end_to_end": {}, "layers": {},
                "counters": {}, "checks": {}}
    return json.loads(out.read_text())


def print_report(report: Dict[str, Any]) -> None:
    for name, wl in report["workloads"].items():
        print(f"== {name}")
        if "error" in wl:
            print(f"   ERROR {wl['error']}")
        for metric, entry in wl["end_to_end"].items():
            print(f"   {metric:<24} {entry['value']:>12.6g} {entry['unit']:<9} "
                  f"({entry['better']} is better, n={entry['n']})")
        for metric, value in wl["layers"].items():
            print(f"   {metric:<32} {value:>12.6g} {metrics.PER_LAYER[metric][0]}")
        for key, value in wl["counters"].items():
            print(f"   . {key}: {json.dumps(value)}")
        for check, entry in wl["checks"].items():
            print(f"   {'ok  ' if entry['ok'] else 'FAIL'} {check}: {entry['detail']}")


def contract_line(report: Dict[str, Any], contract: Dict[str, Any],
                  trace: bool) -> Dict[str, Any]:
    """The last line of stdout: ``BENCHMARK.json``'s metrics for one
    workload, or every workload's under ``<workload>.<metric>``."""
    wanted = contract["per_layer"] if trace else contract["end_to_end"]
    workloads = report["workloads"]
    line: Dict[str, Any] = {
        "correct": all(wl["correct"] for wl in workloads.values()),
        "attempted": sum(wl["attempted"] for wl in workloads.values()),
        "failed": sum(wl["failed"] for wl in workloads.values()),
        "metrics": {},
    }
    for name, wl in workloads.items():
        prefix = "" if len(workloads) == 1 else f"{name}."
        for metric in wanted:
            try:
                value = (wl["layers"][metric["name"]] if trace
                         else metrics.contract_value(metric["name"], wl))
            except KeyError:
                line["correct"] = False
                continue
            line["metrics"][prefix + metric["name"]] = {"value": value,
                                                        "unit": metric["unit"]}
    return line


def _exit_on_signal(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def cmd_run(args: argparse.Namespace) -> int:
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("bench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    contract = metrics.load_contract(root)
    if args.traced:
        args.trace = 1
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    names = [args.workload] if args.workload else list(metrics.WORKLOADS)
    # Terminated like interrupted: unwind, so children are stopped.
    signal.signal(signal.SIGTERM, _exit_on_signal)
    base = root / ".bench"
    workdir = base / f"work-{os.getpid()}"
    report: Dict[str, Any] = {"host": host_info(root), "seed": args.seed,
                              "seconds": args.seconds, "traced": bool(args.trace),
                              "workloads": {}}
    try:
        for name in names:
            report["workloads"][name] = run_workload(name, args, root, workdir / name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = Path(args.out) if args.out else base / (
        f"report-{args.workload or 'all'}-seed{args.seed}"
        f"{'-traced' if args.trace else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print_report(report)
    print(f"report: {out}")
    line = contract_line(report, contract, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", choices=metrics.WORKLOADS,
                     help="one workload (default: all four)")
    run.add_argument("--seed", type=int, default=11)
    run.add_argument("--seconds", type=float, default=None,
                     help="measured seconds per workload "
                          "(default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: the traced pass (per-layer metrics)")
    run.add_argument("--traced", action="store_true", help="same as --trace 1")
    run.add_argument("--out", help="report path (default: under .bench/)")
    cmp_ = sub.add_parser("compare", help="paired comparison of two report sets")
    cmp_.add_argument("--parent", nargs="+", required=True, metavar="REPORT")
    cmp_.add_argument("--change", nargs="+", required=True, metavar="REPORT")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.parent, args.change, metrics.load_contract(Path.cwd()))
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
