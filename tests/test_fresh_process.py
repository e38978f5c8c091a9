"""Properties that only a fresh interpreter shows: what a start imports,
records that do not depend on the interpreter's hash seed, and files read
and written as UTF-8 under a locale whose encoding is ASCII."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(code: str, cwd, **env) -> str:
    """Run `code` in a new interpreter with punchsim on its path; its stdout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path, **env})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


# A serial campaign, its export, and the oracle and analyze commands: none
# of them reads a config file or starts a worker pool.
LEAN_START = """
import json, sys
import punchsim
from punchsim import campaign, cli
assert cli.main(["oracle", "--m", "4", "--k", "4", "--scenario", "mixed"]) == 0
config = campaign.CampaignConfig(population=campaign.PopulationSpec(n_clients=3, n_remotes=3))
records = campaign.run_campaign(config, n_trials=3, seed=1, workers=1)
campaign.export_results(records, "results.json", seed=1, config=config)
assert cli.main(["analyze", "--in", "results.json", "--out", "analysis.json"]) == 0
print(json.dumps(sorted({"yaml", "concurrent.futures", "multiprocessing"} & set(sys.modules))))
"""

# The SHA-256 of the JSON export of a fresh-world and a persistent-NAT campaign.
EXPORT_DIGESTS = """
import hashlib
from punchsim import campaign
digests = []
for persistent in (False, True):
    config = campaign.CampaignConfig(
        population=campaign.PopulationSpec(n_clients=6, n_remotes=6, seed=3),
        persistent_nat=persistent)
    records = campaign.run_campaign(config, n_trials=60, seed=11)
    campaign.export_results(records, "results.json", seed=11, config=config)
    with open("results.json", "rb") as fh:
        digests.append(hashlib.sha256(fh.read()).hexdigest())
print(" ".join(digests))
"""

# A config with a non-ASCII comment, a JSON results file with a non-ASCII
# client in raw UTF-8, and a CSV round trip of that client. The code itself
# is ASCII: the child decodes its argv with the locale's codec.
NON_ASCII_FILES = """
import codecs, json, locale
from punchsim import campaign, cli
with open("campaign.yaml", "wb") as fh:
    fh.write("population: {n_clients: 2, n_remotes: 2, n_relays: 1}  # r\\u00e9seau\\n".encode())
assert cli.main(["simulate", "--config", "campaign.yaml", "--trials", "3",
                 "--seed", "1", "--out", "results.json"]) == 0
records, _ = campaign.load_results("results.json")
records[0]["client"] = "caf\\u00e9"
with open("utf8.json", "wb") as fh:
    fh.write(json.dumps({"seed": 1, "config_hash": "", "records": records},
                        ensure_ascii=False).encode())
assert cli.main(["analyze", "--in", "utf8.json", "--out", "from-json.json"]) == 0
campaign.export_results(records, "results.csv", seed=1, config=campaign.CampaignConfig())
assert campaign.load_results("results.csv")[0] == records
assert cli.main(["analyze", "--in", "results.csv", "--out", "from-csv.json"]) == 0
print(codecs.lookup(locale.getpreferredencoding(False)).name)
"""
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def test_start_loads_no_yaml_and_no_worker_pool(tmp_path):
    # PyYAML loads on the first config read, the pool on the first run
    # with more than one worker.
    assert json.loads(run_python(LEAN_START, tmp_path)) == []


def test_exports_equal_under_different_hash_seeds(tmp_path):
    runs = []
    for hash_seed in ("0", "12345"):
        (tmp_path / hash_seed).mkdir()
        runs.append(run_python(EXPORT_DIGESTS, tmp_path / hash_seed,
                               PYTHONHASHSEED=hash_seed))
    assert runs[0] == runs[1]


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    assert run_python(NON_ASCII_FILES, tmp_path, **ASCII_LOCALE) == "ascii"
    with open(tmp_path / "results.csv", "rb") as fh:
        assert "café".encode() in fh.read()
