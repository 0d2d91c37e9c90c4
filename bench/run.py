"""Benchmark of the doublelift command line.

    python3 bench/run.py --workload {lift,analyze,search} --seed N --seconds S --trace {0,1}

Run from the repository root.  Each job is one ``doublelift.cli.run(argv)``
call in a process forked from a parent that has imported doublelift and done
no library work, so no job sees state left by another, just as each CLI call
starts fresh.  One job runs at a time (a closed loop with one client).  A
round runs the workload's job list once, in an order shuffled by the seed;
rounds repeat until ``--seconds`` have passed and at least ``MIN_ROUNDS``
rounds are done.  Every job's report is checked against the verdicts in
``spec.py``.

Set-up generates the seeded inputs and writes them as canonical JSON, in a
forked process that also imports the library.  It runs ``SETUPS`` times; the
copies must be byte-identical, and ``setup_s`` is the median.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` traced and untraced rounds alternate: traced jobs wrap the
library's public functions (``spans.py``) and the last line reports the
per-layer self times and counts, medians over traced rounds.  The last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat the metrics for a reader.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import shutil
import statistics
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

import spec  # noqa: E402  (standard library only; no doublelift import)

SETUPS = 5
# Every untraced run makes at least this many rounds.  The tail percentile
# is the highest with ten samples beyond it after MIN_ROUNDS rounds, so it
# is fixed per workload and does not move with the number of rounds a host
# manages in ``--seconds``.
MIN_ROUNDS = 4
TAIL_SAMPLES = 10
MIN_TRACED_ROUNDS = 2

END_TO_END = (
    ("setup_s", "s"), ("round_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _fork(child) -> tuple[float, int, float]:
    """Run ``child()`` in a forked process and wait for it.  Returns the
    wall seconds from fork to exit, the exit code and the peak RSS in MB."""
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 3
        try:
            code = child()
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024


def _digest(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _setup(need, seed: int, directory: str) -> float:
    def child():
        import inputs

        inputs.generate(need, seed, directory)
        return 0

    os.makedirs(directory)
    wall, code, _ = _fork(child)
    if code != 0:
        raise RuntimeError(f"set-up exited with {code}")
    return wall


def _job(cli, argv, indir: str, out: str, trace_path):
    def child():
        os.chdir(indir)
        sys.stdout = open(out + ".stdout", "w")
        sys.stderr = open(out + ".stderr", "w")
        tracer = None
        if trace_path:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        code = cli.run(argv)
        if tracer:
            tracer.dump(trace_path)
        return code

    return child


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _job_error(job, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}: {_read(out + '.stderr')[-500:]}"
    try:
        report = json.loads(_read(out + ".stdout"))
    except json.JSONDecodeError as exc:
        return f"unreadable report: {exc}"
    return spec.verdict_error(job, report)


def _tail(typical: list[float]) -> tuple[float, float]:
    """(value, percentile) of the tail statistic over the jobs' typical walls.

    The percentile is the highest that has ten samples beyond it after
    ``MIN_ROUNDS`` rounds, each job counting once per round; the value is the
    typical wall of the job whose samples straddle it.
    """
    share = TAIL_SAMPLES / (MIN_ROUNDS * len(typical))
    index = (MIN_ROUNDS * len(typical) - 1 - TAIL_SAMPLES) // MIN_ROUNDS
    return sorted(typical)[index], 100 * (1 - share)


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one benchmark; returns the result object plus a ``lines`` list
    for the reader and a ``rounds`` list of per-round figures."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    job_list = spec.jobs(workload, smoke)
    need = spec.inputs(job_list)
    base = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    try:
        setup_walls, digests = [], set()
        for i in range(SETUPS):
            directory = os.path.join(base, f"setup{i}")
            setup_walls.append(_setup(need, seed, directory))
            digests.add(_digest(directory))
        indir = os.path.join(base, "setup0")
        outdir = os.path.join(base, "out")
        os.makedirs(outdir)
        cli = importlib.import_module("doublelift.cli")
        spans = importlib.import_module("spans") if trace else None
        return _measure(workload, job_list, seed, seconds, trace, cli, spans,
                        indir, outdir, setup_walls, len(digests) == 1)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _measure(workload, job_list, seed, seconds, trace, cli, spans, indir, outdir,
             setup_walls, setups_agree) -> dict:
    order_rng = random.Random(seed)
    problems = [] if setups_agree else ["set-up copies differ"]
    lift_outputs: dict[int, str] = {}
    samples: list[list[tuple[int, float, float]]] = []  # per untraced round: (job, wall, peak RSS MB)
    rounds: list[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        untraced = sum(1 for r in rounds if not r["traced"])
        enough = (untraced >= MIN_TRACED_ROUNDS and len(rounds) - untraced >= MIN_TRACED_ROUNDS
                  if trace else untraced >= MIN_ROUNDS)
        if enough and time.perf_counter() - start >= seconds:
            break
        traced = trace and len(rounds) % 2 == 1
        order = list(range(len(job_list)))
        order_rng.shuffle(order)
        results = []
        round_start = time.perf_counter()
        for j in order:
            out = os.path.join(outdir, str(j))
            argv = spec.argv(job_list[j], out + ".lift.json")
            child = _job(cli, argv, indir, out, out + ".spans" if traced else None)
            results.append((j, *_fork(child)))
        wall = time.perf_counter() - round_start

        layers: dict[str, float] = {}
        covered = 0.0
        if not traced:
            samples.append([(j, job_wall, rss) for j, job_wall, _, rss in results])
        for j, job_wall, code, rss in results:
            out = os.path.join(outdir, str(j))
            attempted += 1
            error = _job_error(job_list[j], code, out)
            if error is None and job_list[j][0] == "lift":
                digest = hashlib.sha256(_read(out + ".lift.json").encode()).hexdigest()
                if lift_outputs.setdefault(j, digest) != digest:
                    error = "output differs between rounds"
            if error:
                failed += 1
                problems.append(f"{job_list[j][0]} {job_list[j][1]}: {error}")
            if traced and code == 0:
                job_layers, job_covered = spans.layer_metrics(spans.load(out + ".spans"))
                covered += job_covered
                for name, value in job_layers.items():
                    layers[name] = layers.get(name, 0) + value
        rounds.append({"traced": traced, "wall": wall, "layers": layers, "covered": covered})

    problems += _check_lift_outputs(job_list, outdir, lift_outputs)
    untraced_walls = [r["wall"] for r in rounds if not r["traced"]]
    traced_count = len(rounds) - len(untraced_walls)
    lines = [f"workload {workload}, seed {seed}: {len(job_list)} jobs per round, "
             f"{len(untraced_walls)} untraced and {traced_count} traced rounds"]
    if trace:
        metrics = _layer_metrics(spans, rounds, untraced_walls)
        units = {name: unit for name, unit, _ in spans.METRICS}
    else:
        metrics = _end_to_end(samples, untraced_walls, setup_walls, lines)
        units = dict(END_TO_END)
    for name, value in metrics.items():
        lines.append(f"{name:38s} {value:12.6g} {units[name]}")
    lines.append(f"failed_ratio {failed}/{attempted} jobs")
    lines += [f"problem: {p}" for p in problems]
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "lines": lines,
        "rounds": rounds,
    }


def _check_lift_outputs(job_list, outdir, lift_outputs) -> list[str]:
    """Every lift output is canonical: it round-trips byte for byte and has
    the expected number of squares."""
    serialize = importlib.import_module("doublelift.serialize")
    problems = []
    for j in sorted(lift_outputs):
        key = job_list[j][1]
        text = _read(os.path.join(outdir, f"{j}.lift.json"))
        if serialize.dumps(serialize.loads(text)) != text:
            problems.append(f"lift {key}: output does not round-trip")
        if len(json.loads(text)["c1"]["dom"]) != spec.LIFTS[key][0]:
            problems.append(f"lift {key}: wrong square count in the output")
    return problems


def _end_to_end(samples, round_walls, setup_walls, lines) -> dict[str, float]:
    """``job_p50_s`` is the median over rounds of each round's median job: a
    median pooled over rounds would fall between the slowest run of one job
    and the fastest of the next whenever a round has an even number of jobs.

    ``job_tail_s`` takes each job's typical wall as its mean over rounds.  On
    a shared host one job's wall moves by a quarter from round to round, so a
    single pooled order statistic lands on whichever run of a job happened to
    be fast; the mean over rounds uses every run of the job at the tail."""
    walls: dict[int, list[float]] = {}
    for round_samples in samples:
        for j, wall, _ in round_samples:
            walls.setdefault(j, []).append(wall)
    tail, percentile = _tail([statistics.fmean(w) for w in walls.values()])
    q1, _, q3 = statistics.quantiles(round_walls, n=4)
    lines.append(f"set-ups {', '.join(f'{w:.4f}' for w in setup_walls)} s; "
                 f"rounds {', '.join(f'{w:.4f}' for w in round_walls)} s "
                 f"(q1 {q1:.4f}, q3 {q3:.4f}); "
                 f"job_tail_s is p{percentile:.1f} of {len(walls)} jobs' means over "
                 f"{len(samples)} rounds, {TAIL_SAMPLES} samples beyond it at {MIN_ROUNDS} rounds")
    return {
        "setup_s": statistics.median(setup_walls),
        "round_s": statistics.median(round_walls),
        "job_p50_s": statistics.median(statistics.median(w for _, w, _ in r) for r in samples),
        "job_tail_s": tail,
        "peak_rss_mb": max(rss for r in samples for _, _, rss in r),
    }


def _layer_metrics(spans, rounds, untraced_walls) -> dict[str, float]:
    traced = [r for r in rounds if r["traced"]]
    per_round = []
    for r in traced:
        values = {name: r["layers"].get(name, 0) for name, _, _ in spans.METRICS}
        attempts = values["lift.precosheaf_map_attempts"]
        values["adjoint.map_yield"] = values["adjoint.maps_found"] / attempts if attempts else 0.0
        values["trace.round_s"] = r["wall"]
        values["trace.remainder_s"] = r["wall"] - r["covered"]
        per_round.append(values)
    out = {name: statistics.median(v[name] for v in per_round) for name, _, _ in spans.METRICS}
    out["trace.overhead_ratio"] = out["trace.round_s"] / statistics.median(untraced_walls)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "doublelift", "__init__.py")):
        print(f"doublelift sources not found under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("lines"):
        print(line)
    result.pop("rounds")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
