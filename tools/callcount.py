"""Python calls into punchsim per benchmark op, counted without a clock.

    python tools/callcount.py [--top 15]

Runs 200 campaign-serial trials, 100 birthday-mc punches and one
analyze-file pass of perfbench's workloads at its default seed under
`sys.setprofile` and counts each "call" event of a frame whose module
(`f_globals["__name__"]`) is punchsim's, by module and by function. The
module, not the code's file, decides, so the `__init__`, `__eq__` and
`__repr__` that `dataclasses` generates count too: their code lives in
`<string>`. Comprehension and generator-expression frames are left out:
Python 3.12 runs comprehensions inline (PEP 709), so counting their frames
would tie the totals to the version. The counts follow from the simulated
work alone, so unlike a wall time they compare across machines and runs;
tests/test_call_counts.py pins the per-module totals. A method of a
punchsim class is named "Class.method", a generated one too; any other
function by its `co_qualname`, which Python 3.10 lacks, so there a nested
function is named without its outer function.
"""

import argparse
import os
import sys
import tempfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import punchsim  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402
from punchsim import strategies  # noqa: E402

PACKAGE = punchsim.__name__
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}
# The ops counted per workload; tests/test_call_counts.py pins their totals.
OPS = {"campaign-serial": 200, "birthday-mc": 100, "analyze-file": 1}


def method_names() -> dict:
    """Code object -> "Class.method" for every method defined on a class of
    a loaded punchsim module, the dataclass-generated ones included."""
    names = {}
    for name, module in list(sys.modules.items()):
        if name.startswith(PACKAGE + "."):
            for cls in vars(module).values():
                if isinstance(cls, type) and cls.__module__ == name:
                    for attr, fn in vars(cls).items():
                        code = getattr(fn, "__code__", None)
                        if code is not None:
                            names[code] = f"{cls.__qualname__}.{attr}"
    return names


def count_calls(run) -> Counter:
    """The calls into punchsim that `run()` makes: (module, function) -> count."""
    by_code = Counter()

    def profile(frame, event, arg):
        if event == "call":
            by_code[frame.f_code, frame.f_globals.get("__name__", "")] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    names = method_names()
    calls = Counter()
    for (code, module), n in by_code.items():
        if module.startswith(PACKAGE + ".") and code.co_name not in COMPREHENSIONS:
            name = names.get(code) or getattr(code, "co_qualname", code.co_name)
            calls[module.rpartition(".")[2], name] += n
    return calls


def workload_calls(name: str) -> Counter:
    """The calls of a perfbench workload's first OPS[name] ops at its default
    seed, its set-up excluded.

    A birthday punch caches its opening sources for the process, so the
    cache is emptied first: the count is a fresh process's, whatever ran
    before it."""
    with tempfile.TemporaryDirectory() as workdir:
        workload = WORKLOADS[name](DEFAULT_SEED, workdir)
        workload.setup()
        strategies._sources.cache_clear()
        return count_calls(lambda: [workload.op(i) for i in range(OPS[name])])


def module_totals(calls: Counter) -> dict:
    totals = Counter()
    for (module, _), n in calls.items():
        totals[module] += n
    return dict(sorted(totals.items()))


def table(name: str, n: int, calls: Counter, top: int) -> str:
    workload = WORKLOADS[name]
    label = workload.op_label
    rows = [f"{name}: {n * workload.items_per_op} {workload.item}",
            f"  {'module':<12}{'calls':>10}{'per ' + label:>14}"]
    totals = module_totals(calls)
    for module, count in sorted(totals.items(), key=lambda kv: -kv[1]):
        rows.append(f"  {module:<12}{count:>10}{count / n:>14.2f}")
    total = sum(totals.values())
    rows.append(f"  {'total':<12}{total:>10}{total / n:>14.2f}")
    if top:
        rows.append(f"  top {top} functions, calls per {label}:")
        for (module, function), count in calls.most_common(top):
            rows.append(f"    {count / n:>10.2f}  {module}.{function}")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--top", type=int, default=15, help="functions listed per workload")
    args = parser.parse_args(argv)
    print(f"Python {sys.version.split()[0]}, seed {DEFAULT_SEED}")
    for name, n in OPS.items():
        print(table(name, n, workload_calls(name), args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
