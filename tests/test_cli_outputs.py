"""Every bundled config under every CLI verb, pinned.

`cli_outputs.json` holds, per (config, verb), the exit code, stderr,
the sha256 of stdout without its `# max_dev*` lines, and those lines'
values. The runs go through `cli.main` in-process, with
`--override-quadrature-bound` where the verb takes it. stdout, stderr
and exit code must match exactly, except the `max_dev` values: the
fig3b and fig5 reconstructions sit at roundoff, so each value is
compared within its printed digits plus platform noise,
max(1e-6 |pin|, 1e-14), and never more loosely than 1e-10 absolute.

Re-record (only for an intended output change) with
`PYTHONPATH=src python tests/test_cli_outputs.py`.
"""

import contextlib
import hashlib
import io
import json
from importlib.resources import files
from pathlib import Path

import pytest

from jmscatter.cli import main

PINNED = Path(__file__).parent / "cli_outputs.json"
CONFIG_DIR = files("jmscatter") / "configs"
CONFIGS = ("fig1", "fig2", "fig3b", "fig5", "table1", "table2", "table3", "table4")
VERBS = ("scan", "table", "basis-check", "stability-scan")


def run(config: str, verb: str) -> dict:
    """One CLI run, reduced to what is pinned."""
    argv = [verb, "--config", str(CONFIG_DIR / f"{config}.yaml")]
    if verb != "basis-check":
        argv.append("--override-quadrature-bound")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = out.getvalue().splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith("# max_dev"))
    max_dev = [
        [name.strip(), float(value)]
        for name, value in (line[2:].split("=") for line in lines if line.startswith("# max_dev"))
    ]
    return {
        "config": config,
        "verb": verb,
        "exit": code,
        "stderr": err.getvalue(),
        "stdout_sha256": hashlib.sha256(kept.encode("utf-8")).hexdigest(),
        "max_dev": max_dev,
    }


@pytest.mark.parametrize("row", json.loads(PINNED.read_text(encoding="utf-8")),
                         ids=lambda row: f"{row['config']}-{row['verb']}")
def test_cli_output_pinned(row):
    got = run(row["config"], row["verb"])
    assert (got["exit"], got["stderr"], got["stdout_sha256"]) == (
        row["exit"], row["stderr"], row["stdout_sha256"]
    )
    assert [name for name, _ in got["max_dev"]] == [name for name, _ in row["max_dev"]]
    for (_, value), (_, want) in zip(got["max_dev"], row["max_dev"]):
        assert abs(value - want) <= min(max(1e-6 * abs(want), 1e-14), 1e-10)


def test_pins_cover_every_config_and_verb():
    rows = json.loads(PINNED.read_text(encoding="utf-8"))
    assert sorted((row["config"], row["verb"]) for row in rows) == sorted(
        (config, verb) for config in CONFIGS for verb in VERBS
    )


if __name__ == "__main__":
    rows = [run(config, verb) for config in CONFIGS for verb in VERBS]
    PINNED.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
