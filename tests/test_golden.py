"""The benchmark's golden digests, recomputed in the test suite so that a
change to any exported byte fails here and not only in the benchmark.

Each case runs one workload of `perfbench.workloads` at the default seed
over exactly the operations its gate digests, then compares the digests
with `perfbench/golden.json`. Two more pins cover the writer outputs the
golden file does not: the CSV export and the aggregate report of the
campaign-serial gate's records.
"""

import hashlib
import json
import os
import sys

import pytest

from punchsim import campaign

# The benchmark package sits at the root of the checkout.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.workloads import DEFAULT_SEED, GOLDEN_PATH, WORKLOADS  # noqa: E402

# sha256 of the campaign-serial gate's 500 records (seed 42) written as CSV
# by `export_results`, and as an aggregate report by `export_report`.
CSV_EXPORT_SHA256 = "6ccc7575141809ea6468e4237b999c354432c50c64dc8aadb706f9eed9e0ba20"
REPORT_SHA256 = "2fa93a63417f87c098e78406318286b6ed4a2fcaea87d8754b3b207630cab949"


def run_gate_ops(name, workdir):
    workload = WORKLOADS[name](DEFAULT_SEED, workdir)
    workload.setup()
    for i in range(workload.gate_ops):
        result = workload.op(i)
        assert not workload.failed(result)
        workload.keep(i, result)
    return workload


@pytest.fixture(scope="module")
def campaign_serial(tmp_path_factory):
    """The campaign-serial workload after its gate's trials, run once for
    every test of this module that reads them."""
    return run_gate_ops("campaign-serial", str(tmp_path_factory.mktemp("serial")))


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", ["campaign-serial", "birthday-mc", "analyze-file"])
def test_digests_match_golden(name, tmp_path, request):
    if name == "campaign-serial":
        workload = request.getfixturevalue("campaign_serial")
    else:
        workload = run_gate_ops(name, str(tmp_path))
    digests, checks = workload.gate()
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)[name]
    assert {key: digests[key] for key in golden} == golden
    assert all(checks.values()), checks


def test_csv_export_is_pinned(campaign_serial, tmp_path):
    path = str(tmp_path / "records.csv")
    campaign.export_results(campaign_serial.records, path, seed=DEFAULT_SEED,
                            config=campaign_serial.config)
    assert len(campaign_serial.records) == 500
    assert sha256_of(path) == CSV_EXPORT_SHA256


def test_aggregate_report_is_pinned(campaign_serial, tmp_path):
    config = campaign_serial.config
    report = campaign.aggregate(campaign_serial.records, seed=DEFAULT_SEED,
                                config_hash=campaign.config_hash(config))
    path = str(tmp_path / "report.json")
    campaign.export_report(report, path)
    assert sha256_of(path) == REPORT_SHA256
