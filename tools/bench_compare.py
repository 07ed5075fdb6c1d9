#!/usr/bin/env python3
"""CI perf-regression gate over the harness benchmark JSONs.

Compares freshly produced BENCH_*.json files (bench/harness.{h,cc} output)
against the committed baselines in bench/baselines/ and fails the build
when any case's median runtime regressed beyond the tolerance.

    tools/bench_compare.py BENCH_exact.json BENCH_service.json ...
    tools/bench_compare.py --tolerance 0.25 --baselines bench/baselines \
        BENCH_*.json
    tools/bench_compare.py --case-tolerance 'BENCH_net.json::*=1.0' \
        BENCH_net.json               # wider bar for one noisy case family
    tools/bench_compare.py --self-test        # gate sanity check

Rules, per (file, case label):
  * the effective tolerance is the first --case-tolerance PATTERN=VALUE
    whose fnmatch PATTERN matches "<file>::<label>", else --tolerance —
    so a handful of noisy cases (e.g. loopback round trips on shared CI
    runners) can get a wider bar without loosening the whole gate
  * ratio = fresh median / baseline median
  * ratio > 1 + tolerance            -> REGRESSION (build fails)
  * ratio < 1 / (1 + tolerance)      -> improvement (reported; consider
                                        re-baselining to tighten the gate)
  * both medians below --min-seconds -> skipped (noise floor: timer jitter
                                        on micro-cases would make the gate
                                        flaky)
  * case only in the baseline        -> MISSING (build fails: a bench
                                        silently lost coverage)
  * case only in the fresh file      -> new (reported; re-baseline to
                                        start tracking it)
  * baseline file absent             -> build fails; run the bench with
                                        --bench-json and commit the output
                                        under bench/baselines/

--self-test verifies the gate itself: every committed baseline must pass
against an identical copy and fail against a copy with all medians
doubled (the "injected 2x slowdown"). CI runs this next to the real
comparison so a broken gate cannot silently wave regressions through.

Re-baselining (after an intentional perf change, or when moving to new CI
hardware): rebuild Release, run each harness bench with
`--bench-json --bench-reps=5`, copy the BENCH_*.json files over
bench/baselines/, and commit them together with the change that shifted
the numbers. Tolerance can be widened per run via BENCH_COMPARE_TOLERANCE
without touching the workflow file.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys
from pathlib import Path

DEFAULT_TOLERANCE = 0.25
DEFAULT_MIN_SECONDS = 1e-3


def parse_case_tolerance(spec: str) -> tuple[str, float]:
    """'PATTERN=VALUE' -> (PATTERN, VALUE); PATTERN fnmatches file::label."""
    pattern, sep, value = spec.rpartition("=")
    if not sep or not pattern:
        raise argparse.ArgumentTypeError(
            f"--case-tolerance expects PATTERN=VALUE, got {spec!r}"
        )
    try:
        tolerance = float(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(
            f"--case-tolerance {spec!r}: {value!r} is not a number"
        ) from error
    if tolerance <= 0:
        raise argparse.ArgumentTypeError(
            f"--case-tolerance {spec!r}: tolerance must be positive"
        )
    return pattern, tolerance


def load_cases(path: Path) -> dict[str, float]:
    """label -> median_seconds from one harness JSON document."""
    with path.open() as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or "cases" not in doc:
        raise ValueError(f"{path}: not a harness bench JSON (no 'cases')")
    cases: dict[str, float] = {}
    for case in doc["cases"]:
        cases[case["label"]] = float(case["median_seconds"])
    return cases


class Comparison:
    def __init__(
        self,
        tolerance: float,
        min_seconds: float,
        case_tolerances: list[tuple[str, float]] | None = None,
    ) -> None:
        self.tolerance = tolerance
        self.min_seconds = min_seconds
        self.case_tolerances = case_tolerances or []
        self.failures: list[str] = []
        self.notes: list[str] = []

    def tolerance_for(self, name: str, label: str) -> float:
        """First matching --case-tolerance wins; else the global tolerance."""
        key = f"{name}::{label}"
        for pattern, tolerance in self.case_tolerances:
            if fnmatch.fnmatch(key, pattern):
                return tolerance
        return self.tolerance

    def compare_file(self, fresh_path: Path, baseline_path: Path) -> None:
        name = fresh_path.name
        if not baseline_path.exists():
            self.failures.append(
                f"{name}: no committed baseline at {baseline_path} — run the "
                "bench with --bench-json and commit the output"
            )
            return
        fresh = load_cases(fresh_path)
        baseline = load_cases(baseline_path)

        for label in baseline:
            if label not in fresh:
                self.failures.append(
                    f"{name} :: {label}: present in the baseline but not in "
                    "the fresh run (bench lost coverage?)"
                )
        for label in fresh:
            if label not in baseline:
                self.notes.append(
                    f"{name} :: {label}: new case (no baseline yet; "
                    "re-baseline to start tracking it)"
                )

        for label, base_median in sorted(baseline.items()):
            if label not in fresh:
                continue
            fresh_median = fresh[label]
            if (
                base_median < self.min_seconds
                and fresh_median < self.min_seconds
            ):
                self.notes.append(
                    f"{name} :: {label}: below the {self.min_seconds:g}s "
                    "noise floor, skipped"
                )
                continue
            if base_median <= 0.0:
                self.notes.append(
                    f"{name} :: {label}: zero baseline median, skipped"
                )
                continue
            tolerance = self.tolerance_for(name, label)
            ratio = fresh_median / base_median
            line = (
                f"{name} :: {label}: {base_median:.4f}s -> "
                f"{fresh_median:.4f}s ({ratio:.2f}x"
                + (
                    f", case tolerance ±{tolerance:.0%}"
                    if tolerance != self.tolerance
                    else ""
                )
                + ")"
            )
            if ratio > 1.0 + tolerance:
                self.failures.append(f"REGRESSION {line}")
            elif ratio < 1.0 / (1.0 + tolerance):
                self.notes.append(f"improvement {line} — consider re-baseline")
            else:
                self.notes.append(f"ok {line}")

    def report(self) -> int:
        for note in self.notes:
            print(f"  {note}")
        if self.failures:
            print(
                f"\nbench_compare: FAILED ({len(self.failures)} problem(s), "
                f"tolerance ±{self.tolerance:.0%}):",
                file=sys.stderr,
            )
            for failure in self.failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"\nbench_compare: OK (tolerance ±{self.tolerance:.0%})")
        return 0


def self_test(baselines_dir: Path, tolerance: float, min_seconds: float) -> int:
    """The gate must accept identical numbers and reject a 2x slowdown."""
    baseline_files = sorted(baselines_dir.glob("BENCH_*.json"))
    if not baseline_files:
        print(
            f"bench_compare --self-test: no baselines in {baselines_dir}",
            file=sys.stderr,
        )
        return 1
    problems = 0
    for path in baseline_files:
        cases = load_cases(path)
        gateable = {
            label: median
            for label, median in cases.items()
            if median >= min_seconds
        }
        if not gateable:
            print(
                f"  self-test {path.name}: SKIPPED (every case below the "
                f"{min_seconds:g}s noise floor — raise --bench-reps or grow "
                "the cases)"
            )
            continue

        identical = Comparison(tolerance, min_seconds)
        ok_pass = _compare_maps(identical, path.name, cases, cases)

        slowdown = Comparison(tolerance, min_seconds)
        doubled = {label: 2.0 * median for label, median in cases.items()}
        ok_fail = not _compare_maps(slowdown, path.name, doubled, cases)

        status_pass = "ok" if ok_pass else "BROKEN (identical run rejected)"
        status_fail = (
            "ok" if ok_fail else "BROKEN (2x slowdown NOT caught)"
        )
        print(
            f"  self-test {path.name}: identical={status_pass}, "
            f"injected-2x={status_fail}"
        )
        if not ok_pass or not ok_fail:
            problems += 1
    if problems:
        print(
            f"bench_compare --self-test: FAILED on {problems} baseline "
            "file(s)",
            file=sys.stderr,
        )
        return 1
    print("bench_compare --self-test: OK (gate accepts steady runs and "
          "rejects a 2x slowdown)")
    return 0


def _compare_maps(
    comparison: Comparison,
    name: str,
    fresh: dict[str, float],
    baseline: dict[str, float],
) -> bool:
    """True when `fresh` passes the gate against `baseline`."""
    before = len(comparison.failures)
    for label, base_median in baseline.items():
        fresh_median = fresh.get(label)
        if fresh_median is None:
            comparison.failures.append(f"{name} :: {label}: missing")
            continue
        if (
            base_median < comparison.min_seconds
            and fresh_median < comparison.min_seconds
        ) or base_median <= 0.0:
            continue
        if fresh_median / base_median > 1.0 + comparison.tolerance:
            comparison.failures.append(f"{name} :: {label}: regression")
    return len(comparison.failures) == before


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("files", nargs="*", type=Path,
                        help="freshly produced BENCH_*.json files")
    parser.add_argument(
        "--baselines", type=Path, default=Path("bench/baselines"),
        help="directory with the committed baseline JSONs",
    )
    env_tolerance = os.environ.get("BENCH_COMPARE_TOLERANCE", "").strip()
    parser.add_argument(
        "--tolerance", type=float,
        default=float(env_tolerance) if env_tolerance
        else DEFAULT_TOLERANCE,
        help="allowed relative slowdown before failing (default 0.25; env "
             "override BENCH_COMPARE_TOLERANCE)",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=DEFAULT_MIN_SECONDS,
        help="noise floor: cases faster than this in both runs are skipped",
    )
    parser.add_argument(
        "--case-tolerance", type=parse_case_tolerance, action="append",
        default=[], metavar="PATTERN=VALUE",
        help="per-case tolerance override; PATTERN fnmatches "
             "'<file>::<label>' (repeatable, first match wins)",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="verify the gate passes identical runs and fails a 2x slowdown",
    )
    args = parser.parse_args()

    if args.tolerance <= 0:
        parser.error("--tolerance must be positive")
    if args.self_test:
        return self_test(args.baselines, args.tolerance, args.min_seconds)
    if not args.files:
        parser.error("no BENCH_*.json files given (or use --self-test)")

    comparison = Comparison(args.tolerance, args.min_seconds,
                            args.case_tolerance)
    for fresh_path in args.files:
        if not fresh_path.exists():
            comparison.failures.append(
                f"{fresh_path}: fresh bench output not found — did the bench "
                "run with --bench-json?"
            )
            continue
        comparison.compare_file(fresh_path, args.baselines / fresh_path.name)
    return comparison.report()


if __name__ == "__main__":
    sys.exit(main())
