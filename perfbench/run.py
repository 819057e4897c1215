"""lipext benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lipext source checkout.  The workload runs in a
fresh single-threaded interpreter (perfbench/worker.py) that imports lipext
from ./src.  With --trace 0 this prints every end-to-end metric and, as its
last line, one JSON object {"correct", "attempted", "failed", "metrics"};
with --trace 1 the metrics are the per-layer ones from a traced run.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import LAYER_UNITS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("scalar-path", "sweep", "kpoint-check", "cli")
# Set-up is timed three times and the median reported: two workers that
# stop after set-up, then the measuring worker.
SETUP_PROBES = 2
WORKER_TIMEOUT = 150.0     # seconds; the whole run must end within 180
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
E2E_UNITS = {
    "setup_s": "s",
    "solve_s.S": "s",
    "solve_s.M": "s",
    "solve_s.L": "s",
    "verify_s": "s",
    "query_ms.p50": "ms",
    "query_ms.p98": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("LIPEXT_LOG", None)
    env["PYTHONHASHSEED"] = "0"  # the same set and dict orders in every run
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def start_worker(args, env, *extra) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its READY line; returns it with the
    set-up time (interpreter start, import lipext, input generation)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise BenchError(f"worker set-up failed (exit code {proc.returncode})")
    return proc, setup


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def provenance(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def run(args, root: Path) -> dict:
    env = worker_env(root)
    # compile lipext's bytecode first, so set-up samples time imports only
    subprocess.run([sys.executable, "-c", "import lipext.cli"], env=env, check=True,
                   timeout=60, stdout=subprocess.DEVNULL)
    setups = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        proc, setup = start_worker(args, env, "--setup-only")
        try:
            out, _ = proc.communicate(timeout=60)
        finally:
            stop(proc)
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"set-up sample exited with {proc.returncode}")
        setups.append((setup, json.loads(out.strip().splitlines()[-1])["setup_slowdown"]))
    proc, setup = start_worker(args, env)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    finally:
        stop(proc)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    setups.append((setup, result["setup_slowdown"]))
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(t / slow for t, slow in setups)
        result["wall"]["setup_s"] = statistics.median(t for t, _ in setups)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "lipext" / "__init__.py").is_file():
        print(f"perfbench: no lipext sources under {root / 'src'}; run from a lipext checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args, root)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    units = LAYER_UNITS if args.trace else E2E_UNITS
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    print(f"provenance {json.dumps(provenance(root))}")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    wall = result.get("wall", {})
    if wall:
        print(f"  machine slowdown over the run {result['slowdown']:.3f}  "
              "(times are scaled by it; the wall time follows each)")
    for name, m in metrics.items():
        raw = f"   wall {wall[name]:.6g}" if name in wall and name != "peak_rss_mb" else ""
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}{raw}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
