"""Line coverage of src/punchsim under the test suite, with the stdlib only.

    python tools/linecov.py

Runs pytest on tests/ under `sys.settrace` with a fixed Hypothesis seed and
no example database, so the set of traced lines repeats from run to run.
Exits 1 when an executable line of src/punchsim never runs and
tools/linecov_allow.txt does not list it, or when an allowlist entry names
no untraced line. An allowlist line reads `file | stripped source | reason`;
entries are keyed by text, not line number, so edits elsewhere keep them.
"""

import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "punchsim")
# The five slowest tests; the rest of the suite runs the lines they run.
SLOW = ["tests/test_acceptance.py::TestMonteCarloAgreement::test_20k_punches_within_two_points_of_oracle",
        "tests/test_acceptance.py::TestTransportAgnosticism::test_tcp_and_quic_rates_within_two_points",
        "tests/test_acceptance.py::TestFirstAttemptDominance::test_cone_population_succeeds_on_first_attempt",
        "tests/test_strategies.py::TestSamplingOracle::test_hit_rate_matches_analytic_oracle",
        "tests/test_strategies.py::TestSamplingOracle::test_same_verdict_as_birthday_punch"]


def executable_lines(path: str) -> set:
    with open(path) as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: module entry
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main() -> int:
    files = sorted(os.path.join(SRC, name) for name in os.listdir(SRC) if name.endswith(".py"))
    hits = {path: set() for path in files}
    # Per code object, its lines not traced yet; once none is left, its
    # frames run untraced. A def line runs in the enclosing frame.
    pending = {}

    def trace(frame, event, arg):
        code = frame.f_code
        todo = pending.get(code)
        if todo is None:
            todo = pending[code] = set() if code.co_filename not in hits else {
                line for _, _, line in code.co_lines()
                if line and line != code.co_firstlineno}
        return line if todo else None

    # One line tracer for every frame: a closure made per call would
    # reference itself, and that cyclic garbage would fail the test that
    # a closed world leaves none.
    def line(frame, event, arg):
        code = frame.f_code
        hits[code.co_filename].add(frame.f_lineno)
        pending[code].discard(frame.f_lineno)
        return line

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    import pytest

    class Profile:
        """No deadlines under the tracer, and no example database."""

        @staticmethod
        def pytest_configure(config):
            from hypothesis import settings
            settings.register_profile("linecov", deadline=None, database=None)
            settings.load_profile("linecov")

    args = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests"]
    args += [f"--deselect={test}" for test in SLOW]
    sys.settrace(trace)
    status = pytest.main(args, plugins=[Profile()])
    sys.settrace(None)
    if status != 0:
        print(f"linecov: the tests failed (pytest exit {status})")
        return 1

    allowed = {}
    with open(os.path.join(ROOT, "tools", "linecov_allow.txt")) as fh:
        for entry in fh:
            if entry.strip() and not entry.startswith("#"):
                parts = [part.strip() for part in entry.split(" | ", 2)]
                if len(parts) < 3 or not parts[2]:
                    raise SystemExit(f"allowlist entry without a reason: {entry!r}")
                allowed[tuple(parts[:2])] = False
    untraced = total = 0
    for path in files:
        with open(path) as fh:
            source = fh.read().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for lineno in sorted(lines - hits[path]):
            key = (os.path.basename(path), source[lineno - 1].strip())
            if key in allowed:
                allowed[key] = True
            else:
                untraced += 1
                print(f"untraced: {os.path.relpath(path, ROOT)}:{lineno}: {key[1]}")
    for (name, text), used in allowed.items():
        if not used:
            print(f"stale allowlist entry: {name} | {text}")
    print(f"linecov: {untraced} untraced of {total} executable lines, "
          f"{sum(allowed.values())} allowlisted")
    return 1 if untraced or not all(allowed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
