"""The fuzzing loop and the ``python -m repro.fuzz`` command line.

Each integer seed yields one flow trial, one query trial, one lint
trial (static/dynamic agreement) and one evolve trial (incremental
design evolution versus full rebuild), all fully determined by the
seed (string-seeded RNG, stable across platforms and
``PYTHONHASHSEED``).  Failures are shrunk and written as corpus-format
JSON into ``--failures-dir``; promote a file into
``tests/fuzz/corpus/`` to pin the regression forever.

Typical uses::

    python -m repro.fuzz --seeds 500
    python -m repro.fuzz --start 41 --seeds 1        # reproduce seed 41
    python -m repro.fuzz --seeds 100000 --time-budget 60
    python -m repro.fuzz --replay fuzz-failures/seed41_flow.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional

from repro.fuzz import corpus
from repro.fuzz.evolveoracle import (
    build_evolve_trial,
    check_evolve_trial,
    shrink_evolve_trial,
)
from repro.fuzz.flowgen import build_flow_trial
from repro.fuzz.lintoracle import (
    build_lint_trial,
    check_lint_trial,
    shrink_lint_trial,
)
from repro.fuzz.oracle import check_flow_trial, check_query_trial
from repro.fuzz.querygen import build_query_trial
from repro.fuzz.shrink import shrink_flow_trial, shrink_query_trial

_KINDS = (
    ("flow", build_flow_trial, check_flow_trial, shrink_flow_trial),
    ("query", build_query_trial, check_query_trial, shrink_query_trial),
    ("lint", build_lint_trial, check_lint_trial, shrink_lint_trial),
    ("evolve", build_evolve_trial, check_evolve_trial, shrink_evolve_trial),
)


def run(
    seeds,
    time_budget: Optional[float] = None,
    failures_dir=None,
    echo: Optional[Callable[[str], None]] = None,
    shrink: bool = True,
) -> dict:
    """Run the differential trials for every seed in ``seeds``.

    Returns a report dict: ``trials`` (count actually run), ``seeds``
    (count consumed), ``elapsed`` and ``failures`` — one record per
    failing trial with the seed, kind, oracle detail and the shrunk
    trial as a corpus entry.
    """
    say = echo if echo is not None else (lambda message: None)
    started = time.monotonic()
    report = {"trials": 0, "seeds": 0, "failures": [], "elapsed": 0.0}
    for seed in seeds:
        if (
            time_budget is not None
            and time.monotonic() - started >= time_budget
        ):
            say(f"time budget of {time_budget:.1f}s reached")
            break
        report["seeds"] += 1
        for kind, build, check, reduce_trial in _KINDS:
            try:
                trial = build(seed)
                detail = check(trial)
            except Exception as exc:  # the harness itself must not die
                detail = f"harness: {type(exc).__name__}: {exc}"
                trial = None
            report["trials"] += 1
            if detail is None:
                continue
            say(f"seed {seed} [{kind}] FAILED: {detail}")
            record = {"seed": seed, "kind": kind, "detail": detail}
            if trial is not None:
                shrunk = reduce_trial(trial) if shrink else trial
                record["entry"] = corpus.encode_trial(
                    shrunk, description=detail.split("\n")[0][:200]
                )
                if failures_dir is not None:
                    directory = Path(failures_dir)
                    directory.mkdir(parents=True, exist_ok=True)
                    path = directory / f"seed{seed}_{kind}.json"
                    corpus.save_entry(path, record["entry"])
                    record["path"] = str(path)
                    say(
                        f"  shrunk reproducer written to {path} "
                        f"(replay: python -m repro.fuzz --replay {path})"
                    )
            report["failures"].append(record)
    report["elapsed"] = time.monotonic() - started
    return report


def _replay_files(paths: List[str], say) -> int:
    failures = 0
    for raw_path in paths:
        path = Path(raw_path)
        entry = json.loads(path.read_text())
        detail = corpus.replay(entry)
        if detail is None:
            say(f"{path}: PASS")
        else:
            failures += 1
            say(f"{path}: FAIL: {detail}")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description=(
            "Differential fuzzing of the dual-mode ETL engine and the "
            "document store."
        ),
    )
    parser.add_argument(
        "--seeds", type=int, default=100,
        help="number of seeds to run (default: 100)",
    )
    parser.add_argument(
        "--start", type=int, default=0,
        help="first seed (default: 0)",
    )
    parser.add_argument(
        "--time-budget", type=float, default=None, metavar="S",
        help="stop after S seconds even if seeds remain",
    )
    parser.add_argument(
        "--failures-dir", default="fuzz-failures",
        help="where shrunk reproducers are written (default: fuzz-failures)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="record failures without minimising them",
    )
    parser.add_argument(
        "--replay", nargs="+", metavar="FILE",
        help="replay corpus-format JSON files instead of fuzzing",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="only print the summary"
    )
    options = parser.parse_args(argv)
    say = (lambda message: None) if options.quiet else print

    if options.replay:
        failures = _replay_files(options.replay, print)
        print(
            f"replayed {len(options.replay)} entr"
            f"{'y' if len(options.replay) == 1 else 'ies'}, "
            f"{failures} failing"
        )
        return 1 if failures else 0

    report = run(
        range(options.start, options.start + options.seeds),
        time_budget=options.time_budget,
        failures_dir=options.failures_dir,
        echo=say,
        shrink=not options.no_shrink,
    )
    print(
        f"{report['trials']} trials over {report['seeds']} seeds in "
        f"{report['elapsed']:.1f}s: {len(report['failures'])} failure(s)"
    )
    divergences = _locksan_divergences(say)
    return 1 if report["failures"] or divergences else 0


def _locksan_divergences(say) -> int:
    """Cross-check observed lock edges against the static graph.

    Only active under ``REPRO_LOCKSAN=1``: every lock-order edge the
    sanitizer observed during the fuzz run must appear in the static
    may-acquire-under graph — an edge the analyzer missed means its
    call resolution has a hole worth a ``# calls:`` annotation.
    """
    from repro.locks import sanitizing

    if not sanitizing():
        return 0
    from repro.analysis.concurrency.sanitizer import monitor

    divergences = monitor.verify_against_static()
    for divergence in divergences:
        say(f"LOCKSAN: {divergence}")
    for finding in monitor.findings:
        say(f"LOCKSAN: {finding}")
    if divergences:
        print(
            f"lock sanitizer: {len(divergences)} observed edge(s) "
            f"outside the static graph"
        )
    return len(divergences)


if __name__ == "__main__":
    sys.exit(main())
