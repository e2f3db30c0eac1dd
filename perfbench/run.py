"""superbrauer benchmark: cold-process CLI workloads, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout.  Every job starts in a fresh
interpreter (``sys.executable perfbench/job.py ...`` with PYTHONPATH=src), one
at a time, so no in-process cache (``weyl._DATUM_CACHE``, the ``_h2_system``,
``_h2_results`` and ``_quotient_cache`` memos on group objects) survives from
one job to the next, just as for a CLI user.  A round runs the workload's jobs
once; the fixed reference job calib.py runs before the first round and after
every round.  Rounds repeat while the next one still ends within S seconds,
and the metrics are medians over rounds; ``wall_s`` sums each job's median.

The host is shared, and how fast it runs drifts by 15% and more over seconds
to minutes, alike for the jobs and the reference job.  ``wall_s`` and
``setup_s`` are therefore given at reference speed: each round's times are
divided by the mean time of the reference job just before and just after the
round, and multiplied by CALIB_REF_S.  The measured medians and the reference
job's median time are printed beside them and kept in the results file.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced rounds and reports the per-layer metrics: self
time and counts of every layer from the traced rounds, and the tracing
overhead as the median difference between each traced round and the
untraced round just before it, which cancels the machine's slow drift.

Each job's report is checked against the expected values in workloads.py; a
non-zero exit or a wrong field counts as failed and never stops the run.
Details (per-job records, report and input digests, spans, the machine) go
to .perfbench/results/; the last line on stdout is the result object.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads
from spans import SELF_TIME_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 170.0  # a run must exit within 180 s
CALIB_REF_S = 0.35  # calib.py's wall time on the 2-core machine of README.md


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_job(job: workloads.Job, workdir: Path, traced: bool, deadline: float) -> dict:
    """One cold CLI process; wall is launch to report written."""
    marks_path = workdir / f"{job.label}.marks.json"
    out_path = workdir / f"{job.label}.report.json"
    err_path = workdir / f"{job.label}.stderr"
    for p in (marks_path, out_path):
        p.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(err_path, "wb") as err:
        launch = now()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "job.py"), str(marks_path), repr(launch), "1" if traced else "0",
             "--", *job.args, "--out", str(out_path)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(max(deadline - now(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        reaped = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {
        "label": job.label,
        "exit": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "problems": [],
    }
    try:
        marks = json.loads(marks_path.read_text())
    except (OSError, ValueError):
        marks = {}
    rec["wall_s"] = marks["done"] - launch if "done" in marks else reaped - launch
    if "parsed" in marks:
        rec["setup_s"] = marks["parsed"] - launch
    if traced and "layers" in marks:
        rec["layers"] = marks["layers"]
        rec["spans"] = marks["spans"]
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
        rec["problems"].append(f"exit {proc.returncode}: {' | '.join(tail)}")
        return rec
    try:
        raw = out_path.read_bytes()
        report = json.loads(raw)
        rec["problems"] += job.check(report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        rec["problems"].append(f"unreadable report: {exc!r}")
        return rec
    rec["report_bytes"] = len(raw)
    rec["report_sha256"] = hashlib.sha256(raw).hexdigest()
    return rec


def run_calib() -> float:
    """Wall time of one reference job, launch to exit."""
    launch = now()
    proc = subprocess.Popen([sys.executable, str(HERE / "calib.py")], cwd=ROOT,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if code != 0:
        raise SystemExit(f"reference job calib.py exited {code}")
    return now() - launch


def run_rounds(wl: workloads.Workload, workdir: Path, seconds: int, traced: bool) -> list[dict]:
    start = now()
    deadline, hard = start + seconds, start + HARD_LIMIT_S
    kinds = itertools.cycle([False, True]) if traced else itertools.repeat(False)
    rounds: list[dict] = []
    took: list[float] = []
    before = run_calib()
    while True:
        kind = next(kinds)
        t0 = now()
        jobs = [run_job(j, workdir, kind, hard) for j in wl.jobs]
        after = run_calib()
        rounds.append({"traced": kind, "jobs": jobs, "calib_s": [before, after]})
        before = after
        took.append(now() - t0)
        done_kinds = {r["traced"] for r in rounds}
        if done_kinds == ({False, True} if traced else {False}) and now() + statistics.median(took) > deadline:
            return rounds
        if now() + max(took) > hard:
            return rounds


def _round_wall(r: dict) -> float:
    return sum(j["wall_s"] for j in r["jobs"])


def _calib(r: dict) -> float:
    """The reference job's time around round r: the mean of before and after."""
    return statistics.fmean(r["calib_s"])


def _calib_median(rounds: list[dict]) -> float:
    return statistics.median([rounds[0]["calib_s"][0]] + [r["calib_s"][1] for r in rounds])


def _job_medians(plain: list[dict], value) -> float:
    """Each job's median over the rounds of value(job record, round), summed over the jobs."""
    return sum(statistics.median(value(r["jobs"][k], r) for r in plain) for k in range(len(plain[0]["jobs"])))


def measured(rounds: list[dict]) -> dict:
    """Medians of the untraced rounds as measured, before scaling."""
    plain = [r for r in rounds if not r["traced"]]
    setups = [j["setup_s"] for r in plain for j in r["jobs"] if "setup_s" in j]
    return {
        "wall_s": _job_medians(plain, lambda j, r: j["wall_s"]),
        "setup_s": statistics.median(setups) if setups else None,  # no job got past parsing
        "peak_rss_mb": statistics.median(max(j["rss_mb"] for j in r["jobs"]) for r in plain),
        "calib_s": _calib_median(rounds),
    }


def end_to_end(rounds: list[dict]) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    setups = [j["setup_s"] / _calib(r) for r in plain for j in r["jobs"] if "setup_s" in j]
    return {
        "wall_s": CALIB_REF_S * _job_medians(plain, lambda j, r: j["wall_s"] / _calib(r)),
        "setup_s": CALIB_REF_S * statistics.median(setups) if setups else None,  # no job got past parsing
        "peak_rss_mb": measured(rounds)["peak_rss_mb"],
    }


def per_layer(rounds: list[dict]) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"] and all("layers" in j for j in r["jobs"])]
    per_round = []
    for r in traced:
        tot: dict = {}
        for j in r["jobs"]:
            for k, v in j["layers"].items():
                tot[k] = tot.get(k, 0) + v
        classes = tot.pop("sharp.classes_enumerated", 0)
        tot["sharp.theta_per_class"] = tot["sharp.theta_calls"] / classes if classes else 0.0
        tot["cli.report_bytes"] = sum(j.get("report_bytes", 0) for j in r["jobs"])
        tot["trace.wall_s"] = _round_wall(r)
        tot["trace.unattributed_s"] = tot["trace.wall_s"] - sum(tot[m] for m in SELF_TIME_METRICS)
        per_round.append(tot)
    if not per_round:
        return {}
    out = {k: statistics.median(t[k] for t in per_round) for k in per_round[0]}
    untraced_wall = statistics.median(_round_wall(r) for r in plain)
    pairs = zip(rounds[0::2], rounds[1::2])  # (untraced, traced), as run_rounds alternates them
    out["trace.overhead_s"] = statistics.median(_round_wall(t) - _round_wall(u) for u, t in pairs)
    cpu = statistics.median(sum(j["cpu_s"] for j in r["jobs"]) for r in plain)
    out["cli.cpu_s"] = cpu
    out["cli.cpu_per_wall"] = cpu / untraced_wall
    out["trace.calib_s"] = _calib_median(rounds)
    return out


def machine() -> dict:
    try:
        res = subprocess.run([sys.executable, str(HERE / "machine.py")], capture_output=True, text=True, timeout=5)
        info = json.loads(res.stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired) as exc:
        info = {"probe_error": repr(exc)}
    info["commit"] = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=5)
        info["commit"] = res.stdout.strip() or None
    return info


def run_one(name: str, seed: int, seconds: int, traced: bool, spec: dict) -> dict:
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=ROOT / ".perfbench") as tmp:
        workdir = Path(tmp)
        wl = workloads.make(name, seed, workdir)
        rounds = run_rounds(wl, workdir, seconds, traced)
    jobs = [j for r in rounds for j in r["jobs"]]
    failed = sum(1 for j in jobs if j["problems"])
    group = "per_layer" if traced else "end_to_end"
    values = per_layer(rounds) if traced else end_to_end(rounds)
    units = {m["name"]: m["unit"] for m in spec[group]}
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"harness produced no value for {missing}")
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "jobs": [{"label": j.label, "args": j.args} for j in wl.jobs],
        "inputs_sha256": wl.inputs,
        "report_sha256": sorted({f"{j['label']}:{j['report_sha256']}" for j in jobs if "report_sha256" in j}),
        "failures": [{"label": j["label"], "problems": j["problems"]} for j in jobs if j["problems"]],
        "measured": measured(rounds),
        "calib_ref_s": CALIB_REF_S,
        "rounds": [{"traced": r["traced"], "calib_s": r["calib_s"],
                    "jobs": [{k: v for k, v in j.items() if k != "spans"} for j in r["jobs"]]}
                   for r in rounds],
        "spans_last_traced_round": next(
            ({j["label"]: j.get("spans") for j in r["jobs"]} for r in reversed(rounds) if r["traced"]), None),
        "machine": machine(),
        "result": result,
    }
    path = results_dir / f"{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    return result, detail["measured"]


def summary(name: str, result: dict, raw: dict) -> str:
    def line(key, value, unit):
        return f"  {key:<28} {'n/a' if value is None else format(value, '.6g'):>14} {unit}"

    lines = [f"{name}:"] + [line(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    if not any(k.startswith("trace.") for k in result["metrics"]):
        lines += [line("measured " + k, raw[k], "s") for k in ("wall_s", "setup_s", "calib_s")]
        lines.append(f"  (wall_s, setup_s above: each round measured x {CALIB_REF_S} s / calib.py time around it)")
    ratio = result["failed"] / result["attempted"]
    lines.append(f"  {'failed_ratio':<28} {ratio:>14.6g} ratio ({result['failed']}/{result['attempted']} jobs)")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "superbrauer" / "cli.py").is_file():
        print(f"error: no superbrauer sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        print(f"error: unknown workload {args.workload!r}; one of {names} or 'all'", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    # byte-compile once so that set-up time measures imports, not compilation
    compileall.compile_dir(ROOT / "src" / "superbrauer", quiet=1)
    results = {}
    for name in chosen:
        results[name], raw = run_one(name, args.seed, args.seconds, bool(args.trace), spec)
        print(summary(name, results[name], raw), flush=True)
    final = results[chosen[0]] if len(chosen) == 1 else results
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
