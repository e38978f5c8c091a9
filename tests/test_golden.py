"""The benchmark's golden digests, recomputed in the test suite so that a
change to any exported byte fails here and not only in the benchmark.

Each case runs one workload of `perfbench.workloads` at the default seed
over exactly the operations its gate digests, then compares the digests
with `perfbench/golden.json`.
"""

import json
import os
import sys

import pytest

# The benchmark package sits at the root of the checkout.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.workloads import DEFAULT_SEED, GOLDEN_PATH, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", ["campaign-serial", "birthday-mc", "analyze-file"])
def test_digests_match_golden(name, tmp_path):
    workload = WORKLOADS[name](DEFAULT_SEED, str(tmp_path))
    workload.setup()
    for i in range(workload.gate_ops):
        result = workload.op(i)
        assert not workload.failed(result)
        workload.keep(i, result)
    digests, checks = workload.gate()
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)[name]
    assert {key: digests[key] for key in golden} == golden
    assert all(checks.values()), checks
