#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny input sizes:

    python3 perfbench/smoke.py

Run it from the repository root. For every workload it runs the untraced
and the traced mode twice on one seed and once on a second seed, and
checks that each run exits 0 with a correct result, reports exactly the
metrics BENCHMARK.json names, and repeats its deterministic work counters
on the same seed. It then checks that the benchmark refuses to run, with
a non-zero exit and no result, where the repository sources are missing.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def run(cwd, workload, seed, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check(bench, workload, seed, trace):
    p = run(REPO, workload, seed, trace)
    lines = p.stdout.strip().splitlines()
    where = f"{workload} seed {seed} trace {trace}"
    assert p.returncode == 0, f"{where}: exit {p.returncode}\n{p.stdout}\n{p.stderr}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {result}"
    assert result["attempted"] >= 1, where
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted], f"{where}: metric names"
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: unit of {m['name']}"
        assert isinstance(got["value"], (int, float)), f"{where}: value of {m['name']}"
        if not trace:
            assert got["value"] != 0, f"{where}: {m['name']} is 0"
    if trace:
        assert not any(l.startswith("CHECK FAILED") for l in lines), where
        assert any(l.startswith("layer ") for l in lines), f"{where}: no layer table"
    digest = [l for l in lines if "counters_digest" in l]
    assert len(digest) == 1, where
    return digest[0].split()[-1]


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            a = check(bench, w, 1, trace)
            b = check(bench, w, 1, trace)
            assert a == b, f"{w} trace {trace}: work counters differ between runs ({a} vs {b})"
            check(bench, w, 2, trace)
            print(f"ok {w} trace {trace} counters {a}", flush=True)

    # A directory holding only the benchmark's own files cannot build it.
    bare = os.path.join(REPO, ".bench_build", "perfbench-smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("target"))
    p = run(bare, bench["workloads"][0]["name"], 1, 0)
    shutil.rmtree(bare)
    assert p.returncode != 0 and '"correct"' not in p.stdout, "ran without the sources"
    print("ok refuses to run without the repository sources")


if __name__ == "__main__":
    main()
