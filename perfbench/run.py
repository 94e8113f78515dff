#!/usr/bin/env python3
"""TimeUnion benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the benchmark binary from this checkout (library sources in src/,
benchmark sources in perfbench/) into $CARGO_TARGET_DIR or .bench_build,
runs one workload and prints the binary's run header followed, as the last
line, by the result object {"correct", "attempted", "failed", "metrics"}.
End-to-end metrics come from untraced runs (--trace 0); --trace 1 prints
the per-layer metrics of a traced run and writes its spans under
<build dir>/traces/.

--self-test runs every workload at a tiny size in both modes and checks
that each metric BENCHMARK.json lists is emitted with its unit, that every
check passed, and that perfbench/metrics.json maps each per-layer metric to
the end-to-end metric and workloads it should move.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base


def build():
    """Configures once and builds incrementally; returns the binary path."""
    out = build_dir() / "perfbench"
    jobs = str(os.cpu_count() or 2)
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return None
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def source_identity():
    """Git commit when the checkout is a repository, and a digest of the
    library and benchmark sources either way."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return commit, h.hexdigest()[:16]


def run_workload(binary, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (header lines, result dict) or None."""
    base = build_dir()
    work = base / "work" / f"{workload}-{os.getpid()}"
    traces = base / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    commit, digest = source_identity()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(work), "--commit", commit,
           "--source-digest", digest,
           "--trace-out", str(traces / f"{workload}-seed{seed}.jsonl")]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log(f"{workload}: benchmark exited with {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: unparsable result line: {lines[-1]}")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"{workload}: unexpected result keys {sorted(result)}")
        return None
    return lines[:-1], result


def self_test(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((BENCH_DIR / "metrics.json").read_text())
    ok = True

    def fail(msg):
        nonlocal ok
        ok = False
        log(f"self-test: {msg}")

    workloads = [w["name"] for w in spec["workloads"]]
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        entry = layer_map.get("per_layer", {}).get(m["name"])
        if entry is None:
            fail(f"per-layer metric {m['name']} has no entry in metrics.json")
            continue
        if entry.get("moves") not in e2e_names and entry.get("moves") != "-":
            fail(f"{m['name']} moves unknown end-to-end metric {entry.get('moves')}")
        for w in entry.get("on", []):
            if w not in workloads:
                fail(f"{m['name']} names unknown workload {w}")
    for w in spec["workloads"]:
        if layer_map.get("workloads", {}).get(w["name"]) != w["why"]:
            fail(f"workload {w['name']}: why differs from metrics.json")
    for w in workloads:
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            got = run_workload(binary, w, 1, 1, trace, tiny=True)
            if got is None:
                fail(f"{w} trace={int(trace)} did not produce a result")
                continue
            _, result = got
            ok_before = ok
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{w} trace={int(trace)}: correct={result['correct']} "
                     f"failed={result['failed']} attempted={result['attempted']}")
            metrics = result["metrics"]
            for m in wanted:
                if m["name"] not in metrics:
                    fail(f"{w} trace={int(trace)}: {m['name']} missing")
                elif metrics[m["name"]].get("unit") != m["unit"]:
                    fail(f"{w} trace={int(trace)}: {m['name']} unit "
                         f"{metrics[m['name']].get('unit')} != {m['unit']}")
            extra = set(metrics) - {m["name"] for m in wanted}
            if extra:
                fail(f"{w} trace={int(trace)}: unlisted metrics {sorted(extra)}")
            if ok and ok_before:
                log(f"self-test: {w} trace={int(trace)} ok")
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    if args.self_test:
        return self_test(binary)
    got = run_workload(binary, args.workload, args.seed, args.seconds,
                       bool(args.trace))
    if got is None:
        return 1
    header, result = got
    for line in header:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
