"""Python calls into punchsim per benchmark op, pinned by module.

tools/callcount.py counts, under `sys.setprofile`, each call whose code
lives in the punchsim package (comprehension and generator-expression
frames left out) while ops of perfbench's workloads run. The count follows
from the simulated work alone, so it moves only when the code on the path
changes: a change that adds calls per packet fails here on any machine,
where a wall time would need a quiet one. A change that removes calls
updates the pins and says so.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
import callcount  # noqa: E402
from punchsim.transport import mean_stddev  # noqa: E402

CAMPAIGN_CALLS = {
    "campaign": 3867, "dcutr": 23271, "kernel": 99610, "nat": 35411, "net": 104885,
    "packets": 39227, "relay": 24628, "transport": 27665,
}
PUNCH_CALLS = {"kernel": 26146, "nat": 42132, "packets": 612, "strategies": 101}


def test_campaign_trials_make_the_pinned_calls():
    calls = callcount.workload_calls("campaign-serial")
    assert callcount.module_totals(calls) == CAMPAIGN_CALLS


def test_birthday_punches_make_the_pinned_calls():
    calls = callcount.workload_calls("birthday-mc")
    assert callcount.module_totals(calls) == PUNCH_CALLS


def test_generator_expression_frames_are_not_counted():
    # mean_stddev sums over a generator expression, whose frame is
    # resumed once per value.
    calls = callcount.count_calls(lambda: mean_stddev([1.0, 2.0, 4.0]))
    assert calls == {("transport", "mean_stddev"): 1}


def test_a_profiler_already_installed_is_put_back():
    def outer(frame, event, arg):
        pass

    sys.setprofile(outer)
    try:
        callcount.count_calls(lambda: mean_stddev([1.0]))
        assert sys.getprofile() is outer
    finally:
        sys.setprofile(None)
