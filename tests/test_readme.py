"""The examples of README.md run as written and give the values it states."""

import json
import re
import shlex
from pathlib import Path

from dynkindex.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def stated_examples(pattern):
    # (argv, stated values) of each README command line matching the pattern.
    return [
        (shlex.split(m.group(1)), m.groups()[1:])
        for m in re.finditer(pattern, README, re.MULTILINE)
    ]


def run_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_index_examples_give_the_stated_values(capsys):
    examples = stated_examples(r"^dynkindex (index .*?)\s+#.*-> (\d+)$")
    assert [argv[2] for argv, _ in examples] == ["sl4", "so8", "F4"]
    for argv, (value,) in examples:
        assert run_json(capsys, argv)["value"] == value, argv


def test_rep_index_example_gives_the_stated_values(capsys):
    examples = stated_examples(r"^dynkindex (rep-index .*?)\s+# dim (\d+), index (\d+)$")
    assert len(examples) == 1
    argv, (dimension, index) = examples[0]
    payload = run_json(capsys, argv)
    assert (payload["dimension"], payload["index"]) == (int(dimension), index)
