#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The first run configures and
builds perfbench/ (and, through it, the program's libraries in src/)
into .bench_build, or into $CARGO_TARGET_DIR when that is set. Every
line but the last is information for people: the host and build record,
every metric with its unit and sample count, and, with --trace 1, the
span fold. The last line is one JSON object with the keys correct,
attempted, failed and metrics, where metrics holds exactly the metrics
BENCHMARK.json lists for the run's mode (end_to_end for --trace 0,
per_layer for --trace 1).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170  # a run must end within 180 s once the program is built


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build(target: str = "perfbench") -> Path:
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target", target],
                   stdout=sys.stderr, check=True)
    return out / target


def source_digest() -> str:
    """SHA-256 over the sources the binary is built from, so results of
    checkouts that are not git repositories can still be told apart."""
    h = hashlib.sha256()
    for top in (ROOT / "src", ROOT / "tools" / "loadgen", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(binary: Path, workload: str, seed: int, seconds: int, trace: int,
        timeout: float = RUN_TIMEOUT_S) -> tuple[list[str], dict]:
    """Runs the benchmark binary; returns its information lines and its
    full result object (every metric it measured, with sample counts)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--commit", commit(), "--source-digest", source_digest()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def contract_line(full: dict, trace: int) -> dict:
    """Reduces the full result to the metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in listed:
        got = full["metrics"].get(m["name"])
        if got is None:
            raise RuntimeError(f"metric {m['name']} was not measured on this workload")
        if got["unit"] != m["unit"]:
            raise RuntimeError(f"metric {m['name']} has unit {got['unit']}, "
                               f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": full["correct"], "attempted": full["attempted"],
            "failed": full["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    try:
        binary = build()
        started = time.monotonic()
        info, full = run(binary, args.workload, args.seed, args.seconds, args.trace)
        for text in info:
            print(text)
        print("# result " + json.dumps(full))
        print(f"# wall {time.monotonic() - started:.1f}s")
        line = contract_line(full, args.trace)
    except (OSError, subprocess.SubprocessError, RuntimeError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
