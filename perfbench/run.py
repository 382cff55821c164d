"""latspec benchmark: run one workload of `lattice` CLI jobs and report.

    python3 perfbench/run.py --workload qspace --seed 1 --seconds 30 --trace 0

Run from the root of a latspec checkout.  One client runs the workload's
jobs in a closed loop, one at a time, each in a fresh interpreter
(`python -m latspec.cli ... --format machine`, with PYTHONPATH=src), and
starts whole passes over the job list until --seconds have passed.  Every job's output is checked exactly (checks.py).

--trace 0 reports the end-to-end metrics; --trace 1 runs each job both
through the CLI and as a traced in-process replay (tracing.py) and
reports the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The run
record, with the environment and every job's wall, CPU, RSS, exit code and
stdout sha256, is written to .perfbench/records/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}

# Interpreter starts behind setup_s, taken before every pass so that the
# median samples the whole run rather than one quiet or busy moment.
SETUP_STARTS_PER_PASS = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_job_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "ratio",
}


@dataclass
class ProcessRun:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: bytes

    def record(self) -> dict:
        out = asdict(self)
        out["stdout_sha256"] = hashlib.sha256(out.pop("stdout")).hexdigest()
        return out


def run_python(args: list[str], scratch: Path) -> ProcessRun:
    """Run `python <args>` from the checkout root; wall time is taken around
    spawn and reap, CPU and max-RSS from the child's wait4 rusage."""
    out_path = scratch / "stdout"
    with open(out_path, "wb") as out, open(scratch / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, cwd=ROOT, env=CHILD_ENV)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessRun(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        exit_code=proc.returncode,
        stdout=out_path.read_bytes(),
    )


def environment(seed: int) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "seed": seed,
    }


def measure_setup(scratch: Path) -> list[float]:
    return [run_python(["-c", "import latspec"], scratch).wall_s for _ in range(SETUP_STARTS_PER_PASS)]


def run_pass(workload: str, documents: dict, scratch: Path, trace: bool) -> list[dict]:
    """One pass over the workload's jobs; one record per job."""
    records = []
    for index, job in enumerate(jobs.WORKLOADS[workload]):
        document = documents.get(job)
        cli = run_python(["-m", "latspec.cli", *job.argv(document)], scratch)
        check = checks.check_job(job, cli.exit_code, cli.stdout)
        rec = {"job": job.name, **cli.record(), "failures": check.failures, "wrong": check.wrong}
        if trace:
            argv = [str(Path(tracing.__file__)), workload, str(index)] + ([str(document)] if document else [])
            traced = run_python(argv, scratch)
            try:
                result = json.loads(traced.stdout)
            except ValueError:
                result = {"error": f"replay printed no result (exit code {traced.exit_code})"}
            rec["replay"] = {"wall_s": traced.wall_s, "exit_code": traced.exit_code, "error": result.get("error")}
            rec["spans"] = result.get("spans")
        records.append(rec)
    return records


def end_to_end(passes: list[list[dict]], setup: list[float]) -> dict[str, float]:
    jobs_run = [rec for records in passes for rec in records]
    return {
        "setup_s": median(setup),
        "wall_s": median(sum(r["wall_s"] for r in records) for records in passes),
        "slowest_job_s": median(max(r["wall_s"] for r in records) for records in passes),
        "cpu_s": median(sum(r["cpu_s"] for r in records) for records in passes),
        "peak_rss_mb": max(r["rss_mb"] for r in jobs_run),
        "pass_share": sum(not job_failed(r) for r in jobs_run) / len(jobs_run),
    }


def per_layer(passes: list[list[dict]]) -> dict[str, float]:
    per_pass = []
    for records in passes:
        traced = [
            ([tracing.Span(**s) for s in r["spans"]], r["replay"]["wall_s"], r["wall_s"])
            for r in records
            if r["spans"] is not None
        ]
        per_pass.append(tracing.pass_metrics(traced))
    return {name: median(p[name] for p in per_pass) for name in per_pass[0]}


def job_failed(rec: dict) -> bool:
    return bool(rec["exit_code"] or rec["failures"] or rec["wrong"])


def replay_failed(rec: dict) -> bool:
    return rec["spans"] is None or rec["replay"]["exit_code"] != 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("qspace", "boolean", "checks"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        env = environment(args.seed)
        run_python(["-c", "import latspec"], scratch)  # writes the bytecode caches
        setup: list[float] = []
        documents = jobs.write_documents(jobs.WORKLOADS[args.workload], args.seed, scratch)
        passes: list[list[dict]] = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            if not args.trace:
                setup += measure_setup(scratch)
            passes.append(run_pass(args.workload, documents, scratch, bool(args.trace)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    jobs_run = [rec for records in passes for rec in records]
    attempted, failed = len(jobs_run), sum(map(job_failed, jobs_run))
    if args.trace:
        attempted += len(jobs_run)
        failed += sum(map(replay_failed, jobs_run))
        values, units = per_layer(passes), tracing.UNITS
    else:
        values, units = end_to_end(passes, setup), END_TO_END_UNITS
    correct = not any(rec["wrong"] for rec in jobs_run)

    records_dir = WORK / "records"
    records_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "setup_starts_s": setup,
        "passes": passes,
        "metrics": values,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
    }
    record_path = records_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for rec in jobs_run:
        for problem in rec["failures"] + rec["wrong"]:
            print(f"{rec['job']}: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes, record {record_path.relative_to(ROOT)}")
    for name, value in values.items():
        print(f"  {name:<28s} {value:>14.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (SRC / "latspec" / "cli.py").is_file():
        print(f"error: {SRC / 'latspec'} not found; run from a latspec checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import checks
    import jobs
    import tracing

    sys.exit(main())
