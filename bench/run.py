"""Closed-loop benchmark of the varidb command line, one workload per process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload join-rows --seed 1 --seconds 25 --trace 0

Each request is one in-process call to ``varidb.cli.main(argv)`` with the
query on stdin, so it pays the whole command's cost: argument parsing,
``load_vdb`` of the generated v-database, type checking, schema push,
minimization and the command itself.  One client sends the next request when
the previous one has returned.  Queries come from a seeded stream of
distinct queries (see ``vdbgen``); untimed warm-up requests are drawn from the
head of the same stream.

``--trace 0`` measures for ``--seconds`` seconds, and at least
``MIN_REQUESTS`` requests, with no instrumentation, then checks every
response against an oracle outside the timed region.  The times in the
result line are at a reference speed of the machine, which repeat
from run to run on a shared host (see ``speed_probe``); the times as
measured are printed beside them.  ``--trace 1`` runs a fixed prefix of the
stream twice, untraced and then with every public varidb function wrapped
(see ``tracer`` and ``layers``), and reports per-layer figures and the
tracing overhead.  Either way the last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with code 2 when there is none.  Everything it writes goes
under ``.bench_build/varidb/`` of that checkout: the generated v-database,
a sha256 of every response (to compare outputs byte for byte across
commits), and the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "varidb"

sys.path.insert(0, str(HERE))

import vdbgen  # noqa: E402

#: Timed requests per run at least, so p90 has ten samples beyond it.
MIN_REQUESTS = 100
#: Untimed requests first, about two rotations of either workload kind.
WARMUP_REQUESTS = 12
#: Requests in each pass of a traced run; divisible by both rotations.
TRACED_REQUESTS = 60
#: Fresh processes that each time `import varidb` plus one load_vdb.
SETUP_PROBES = 9
#: Configurations at which a choice-tree response is checked.
ORACLE_CONFIGS = 4
#: Requests whose output digests are combined into one comparable hash.
DIGEST_PREFIX = 100
#: The end-to-end metrics BENCHMARK.json lists; report() prints more.
END_TO_END = (
    "requests_per_s", "latency_p50_ms", "latency_p90_ms", "run_p50_ms", "setup_s", "peak_rss_mb"
)
#: What `speed_probe` takes at the reference speed: its typical time on an
#: idle 2-vCPU Xeon VM at 2.0 GHz under Python 3.11.
REFERENCE_PROBE_S = 0.005


@dataclass(frozen=True)
class Workload:
    features: int
    rows: int
    depth: int  # choice-tree depth; 0 for the join-rows shapes
    commands: tuple[tuple[str, ...], ...]  # rotated over the query stream


# Each workload puts a different layer on top (see baseline.json for the
# layer each per-layer metric should move).  join-rows: relational work in
# relengine and storage over 3 features.  choice-tree: featexpr decisions
# over the 10 features each tree mentions, within the 12-feature QM
# canonical-print limit, reached through typecheck, push, minimize,
# grouping and reassembly.  configure-run: the default `run` path, 64
# configurations per request.
WORKLOADS = {
    "join-rows": Workload(3, 150, 0, (("run", "--strategy", "group"),)),
    "choice-tree": Workload(
        12,
        12,
        3,
        # run twice per rotation: more run samples, and the overall median
        # then falls inside the sql cluster instead of in the gap between
        # the group and sql latencies
        (
            ("check",),
            ("group",),
            ("sql", "--mode", "union"),
            ("run", "--strategy", "group"),
            ("run", "--strategy", "group"),
        ),
    ),
    "configure-run": Workload(6, 40, 0, (("run",),)),
}


@dataclass(frozen=True)
class Request:
    index: int
    kind: str
    argv: tuple[str, ...]
    query: str


@dataclass
class Outcome:
    request: Request
    latency: float
    digest: str
    output: str | None
    error: str | None
    #: latency at the reference speed; set by the timed loop
    reference: float = 0.0


def requests(name: str, w: Workload, vdb: Path, seed: int):
    """The workload's endless stream of requests, each with a distinct query."""
    features = vdbgen.feature_names(w.features)
    if w.depth:
        make = lambda rng, i: vdbgen.choice_tree(rng, w.depth, features)  # noqa: E731
    else:
        shapes = vdbgen.JOIN_SHAPES
        make = lambda rng, i: vdbgen.join_query(rng, shapes[i % len(shapes)], features)  # noqa: E731
    for i, text in vdbgen.distinct(make, f"queries:{name}:{seed}"):
        command = w.commands[i % len(w.commands)]
        yield Request(i, command[0], (command[0], str(vdb), *command[1:]), text)


# ---------------------------------------------------------------------------
# calling the program
# ---------------------------------------------------------------------------


def call(main, argv, query: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(query)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    finally:
        sys.stdin = stdin
    return rc, out.getvalue(), err.getvalue()


def serve(main, req: Request, keep_output: bool, tracer=None) -> Outcome:
    """Answer one request; a nonzero exit or an exception is a failure."""
    if tracer is not None:
        tracer.request = req.index
    start = time.perf_counter()
    try:
        rc, out, err = call(main, req.argv, req.query)
        error = None if rc == 0 else f"exit {rc}: {err.strip()[:200]}"
    except (Exception, SystemExit) as exc:  # the loop must go on and report it
        out, error = "", f"{type(exc).__name__}: {str(exc)[:200]}"
    latency = time.perf_counter() - start
    digest = hashlib.sha256(out.encode()).hexdigest()
    return Outcome(req, latency, digest, out if keep_output else None, error)


# ---------------------------------------------------------------------------
# oracle (outside the timed region)
# ---------------------------------------------------------------------------


class Oracle:
    """Checks responses with the other strategy or at sample configurations.

    join-rows answers with ``--strategy group`` and must print the same bytes
    as ``--strategy configure``; configure-run the other way round.  The
    configure strategy is too slow at 12 features, so a choice-tree ``run``
    is checked at seeded sample configurations against plain evaluation of
    the pushed, unminimized query.
    """

    def __init__(self, name: str, vdb: Path, seed: int):
        from varidb.cli import main
        from varidb.featexpr import eval_fexp, parse_fexp
        from varidb.relengine import eval_plain
        from varidb.storage import configure_db, load_vdb
        from varidb.translate import configure_query, push_schema
        from varidb.vra import parse_query

        self.name, self.vdb, self.seed = name, vdb, seed
        self.main = main
        self.eval_fexp, self.parse_fexp = eval_fexp, parse_fexp
        self.eval_plain, self.configure_db = eval_plain, configure_db
        self.configure_query, self.push_schema = configure_query, push_schema
        self.parse_query = parse_query
        self.db = load_vdb(vdb)

    def check(self, o: Outcome) -> str | None:
        """None when the response is right, else what is wrong with it.  The
        oracle runs the program as well; an exception there fails the request
        instead of ending the benchmark before it reports."""
        try:
            return self._check(o)
        except Exception as exc:  # reported as this request's failure
            traceback.print_exc()
            return f"oracle raised {type(exc).__name__}: {str(exc)[:200]}"

    def _check(self, o: Outcome) -> str | None:
        if o.error is not None:
            return o.error
        req = o.request
        if self.name == "join-rows":
            return self._same_as(o, ("run", str(self.vdb), "--strategy", "configure"))
        if self.name == "configure-run":
            return self._same_as(o, ("run", str(self.vdb), "--strategy", "group"))
        configs = self._configs(req.index)
        if req.kind == "check":
            return None if o.output.startswith("OK: ") else "check did not print OK"
        if req.kind == "group":
            return self._check_group(o.output, configs)
        if req.kind == "sql":
            ok = o.output.startswith("-- provenance:") and o.output.rstrip().endswith(";")
            return None if ok and o.output.count("-- provenance:") == 1 else "not one union statement"
        return self._check_run(req.query, o.output, configs)

    def _same_as(self, o: Outcome, argv) -> str | None:
        rc, out, err = call(self.main, argv, o.request.query)
        if rc != 0:
            return f"oracle exit {rc}: {err.strip()[:200]}"
        if hashlib.sha256(out.encode()).hexdigest() != o.digest:
            return f"output differs from {' '.join(argv[2:])}"
        return None

    def _configs(self, index: int) -> list[frozenset[str]]:
        rng = random.Random(f"configs:{self.name}:{self.seed}:{index}")
        names = self.db.schema.features
        return [frozenset(f for f in names if rng.random() < 0.5) for _ in range(ORACLE_CONFIGS)]

    def _check_group(self, output: str, configs) -> str | None:
        conditions = [self.parse_fexp(line.rsplit(" # ", 1)[1]) for line in output.splitlines()]
        for c in configs:
            holding = sum(self.eval_fexp(e, c) for e in conditions)
            if holding != 1:
                return f"{holding} groups hold at {sorted(c)}"
        return None

    def _check_run(self, query: str, output: str, configs) -> str | None:
        lines = output.splitlines()
        names = lines[0].split(",")[:-1]
        rows = []
        for line in lines[1:]:
            cells = line.split(",", len(names))
            values = tuple(int(x) if x else None for x in cells[:-1])
            rows.append((values, self.parse_fexp(cells[-1])))
        pushed = self.push_schema(self.parse_query(query), self.db.schema)
        for c in configs:
            got = {values for values, pc in rows if self.eval_fexp(pc, c)}
            plain = self.eval_plain(self.configure_query(pushed, c), self.configure_db(self.db, c))
            idx = {n: i for i, (n, _) in enumerate(plain.columns)}
            want = {tuple(r[idx[n]] if n in idx else None for n in names) for r in plain.rows}
            if got != want:
                return f"rows at {sorted(c)} differ from plain evaluation"
        return None


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def speed_probe() -> float:
    """Time a fixed piece of interpreter work, the kind varidb does: tuple
    keys, dict updates, frozensets, string formatting and a sort.

    The machine is a share of a host whose other tenants slow it down, for
    stretches of seconds to minutes, by up to a factor of two, in CPU time
    as well as in wall time.  The probe runs right before and after each
    timed piece of work; that work's time multiplied by REFERENCE_PROBE_S
    over the probe's mean time is its time at the reference speed, which
    repeats from run to run where the raw time does not.  The probe is the
    benchmark's own code, so a change to varidb cannot make it faster or
    slower: it counts the CPU time of its own thread only, so threads the
    program leaves running do not lengthen it, and it runs with the
    collector off, so no collector setting the program makes moves it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        counts: dict = {}
        sizes = 0
        for i in range(6000):
            key = (i % 97, "f%d" % (i % 13))
            counts[key] = counts.get(key, 0) + 1
            sizes += len(frozenset((i & 7, i & 3)))
        sizes += len(sorted(counts.items()))
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def at_reference(seconds: float, before: float, after: float) -> float:
    """`seconds` of work between two probe times, at the reference speed."""
    return seconds * REFERENCE_PROBE_S * 2 / (before + after)


def setup_probe(vdb: str) -> None:
    """Child process: time `import varidb` plus one cold load_vdb, and print
    it raw and at the reference speed."""
    before = speed_probe()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import varidb.storage

    varidb.storage.load_vdb(vdb)
    raw = time.perf_counter() - start
    print(raw, at_reference(raw, before, speed_probe()))


def measure_setup(vdb: Path) -> tuple[float, float]:
    """Median set-up time of SETUP_PROBES fresh processes: raw and at the
    reference speed."""
    raw, reference = [], []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(vdb)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        r, ref = probe.stdout.strip().splitlines()[-1].split()
        raw.append(float(r))
        reference.append(float(ref))
    return statistics.median(raw), statistics.median(reference)


def p50_ms(latencies) -> float:
    return statistics.median(latencies) * 1000


def p90_ms(latencies) -> float:
    return statistics.quantiles(latencies, n=10)[8] * 1000


def timed_loop(main, stream, seconds: float, keep_output: bool):
    """Serve requests for `seconds`, and at least MIN_REQUESTS of them, with
    a speed probe before the first and after each request.

    Peak RSS is read when the MIN_REQUESTS-th request returns, so it does
    not grow with the number of requests a faster run gets through.
    """
    outcomes: list[Outcome] = []
    probe = speed_probe()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(outcomes) < MIN_REQUESTS:
        o = serve(main, next(stream), keep_output)
        before, probe = probe, speed_probe()
        o.reference = at_reference(o.latency, before, probe)
        outcomes.append(o)
        if len(outcomes) == MIN_REQUESTS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return outcomes, peak_rss_mb


def write_digests(path: Path, outcomes: list[Outcome]) -> str:
    """Write every response's sha256; return one hash over the first
    DIGEST_PREFIX, which is comparable between runs of one seed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps([[o.request.index, o.request.kind, o.digest] for o in outcomes], indent=0)
    )
    combined = hashlib.sha256()
    for o in outcomes[:DIGEST_PREFIX]:
        combined.update(o.digest.encode())
    return combined.hexdigest()


def time_metrics(latencies, kinds, setup_s) -> dict:
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(latency)
    metrics = {
        "requests_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (p50_ms(latencies), "ms"),
        "latency_p90_ms": (p90_ms(latencies), "ms"),
        "run_p50_ms": (p50_ms(by_kind["run"]), "ms"),
        "setup_s": (setup_s, "s"),
    }
    for kind in ("check", "group", "sql"):
        if kind in by_kind:
            metrics[f"{kind}_p50_ms"] = (p50_ms(by_kind[kind]), "ms")
    return metrics


def report(outcomes, attempted, failures, setup, peak_rss_mb, digest):
    """Print every metric at the reference speed and as timed; return the
    listed ones, at the reference speed.  requests_per_s counts the time
    spent in requests, not in the speed probes between them."""
    kinds = [o.request.kind for o in outcomes]
    raw = time_metrics([o.latency for o in outcomes], kinds, setup[0])
    metrics = time_metrics([o.reference for o in outcomes], kinds, setup[1])
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    print(f"timed requests: {len(outcomes)}, {sum(o.latency for o in outcomes):.2f} s "
          f"in requests; outputs sha256 (first {DIGEST_PREFIX}): {digest}")
    print(f"  {'':18s} {'reference':>12s} {'as timed':>12s}")
    for metric, (value, unit) in metrics.items():
        timed = f"{raw[metric][0]:12.4f}" if metric in raw else f"{'':12s}"
        print(f"  {metric:18s} {value:12.4f} {timed} {unit}")
    print(f"  {'failed_share':18s} {len(failures) / attempted:12.4f} {'':12s} share")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    return metrics


def main_untraced(name, w, vdb, seed, seconds, work):
    setup = measure_setup(vdb)
    sys.path.insert(0, str(SRC))
    from varidb.cli import main

    stream = requests(name, w, vdb, seed)
    # only choice-tree responses are checked by content; the others by digest
    keep = bool(w.depth)
    warm = [serve(main, next(stream), keep) for _ in range(WARMUP_REQUESTS)]
    outcomes, peak_rss_mb = timed_loop(main, stream, seconds, keep)

    oracle = Oracle(name, vdb, seed)
    failures = []
    for o in warm + outcomes:
        problem = oracle.check(o)
        if problem is not None:
            failures.append(f"request {o.request.index} ({o.request.kind}): {problem}")
    digest = write_digests(work / "outputs-trace0.json", outcomes)
    attempted = len(warm) + len(outcomes)
    metrics = report(outcomes, attempted, failures, setup, peak_rss_mb, digest)
    return attempted, failures, {
        k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in END_TO_END
    }


def main_traced(name, w, vdb, seed, work):
    sys.path.insert(0, str(SRC))
    import varidb.cli
    import varidb.featexpr
    from varidb.minimize import variation_weight

    import layers
    from tracer import Tracer

    sat = varidb.featexpr.sat

    def main(argv):  # looked up per call, so the traced pass reaches the wrapper
        return varidb.cli.main(argv)

    stream = requests(name, w, vdb, seed)
    warmup = [next(stream) for _ in range(WARMUP_REQUESTS)]
    batch = [next(stream) for _ in range(TRACED_REQUESTS)]

    def one_pass(tracer):
        sat.cache_clear()
        for req in warmup:
            serve(main, req, False)
        if tracer is not None:
            tracer.install("varidb", layers.spec(variation_weight))
        before = sat.cache_info()
        start = time.perf_counter()
        outcomes = [serve(main, req, True, tracer) for req in batch]
        wall = time.perf_counter() - start
        after = sat.cache_info()
        if tracer is not None:
            tracer.uninstall()
        return outcomes, wall, before, after

    plain, plain_wall, _, _ = one_pass(None)
    tracer = Tracer()
    traced, traced_wall, before, after = one_pass(tracer)
    tracer.write_spans(work / "spans.jsonl")

    oracle = Oracle(name, vdb, seed)
    failures = []
    for o, p in zip(traced, plain):
        problem = oracle.check(o)
        if problem is None and o.digest != p.digest:
            problem = "traced output differs from untraced output"
        if problem is not None:
            failures.append(f"request {o.request.index} ({o.request.kind}): {problem}")
    hits, misses = after.hits - before.hits, after.misses - before.misses
    extra = {
        "sat_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "sat_cache_entries": after.currsize,
        "trace_overhead": traced_wall / plain_wall,
    }
    metrics = layers.per_layer(tracer, extra)
    print(f"traced {len(traced)} requests: {traced_wall:.2f} s traced, "
          f"{plain_wall:.2f} s untraced, overhead x{traced_wall / plain_wall:.2f} "
          f"({len(traced) / traced_wall:.2f} against {len(plain) / plain_wall:.2f} requests/s)")
    for metric, m in metrics.items():
        print(f"  {metric:36s} {m['value']:14.4f} {m['unit']}")
    print("every wrapped function, by self time:")
    for fn in sorted(tracer.calls, key=lambda f: -tracer.self_s.get(f, 0.0)):
        print(f"  {fn:36s} {tracer.calls[fn]:10d} calls {tracer.self_s.get(fn, 0.0):10.4f} s self")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    return len(traced), failures, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="VDB", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "varidb" / "__init__.py").is_file():
        print(f"error: no varidb sources under {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}"
    vdb = work / "vdb"
    vdbgen.write_vdb(vdb, w.features, w.rows, args.seed)
    if args.trace:
        attempted, failures, metrics = main_traced(args.workload, w, vdb, args.seed, work)
    else:
        attempted, failures, metrics = main_untraced(
            args.workload, w, vdb, args.seed, args.seconds, work
        )
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
