"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from jetdiff.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(block, f"{README}:Library", "exec"), {})


def shell_examples():
    """(command line, shown output) for each `$ jetdiff ...` line in the
    README's sh blocks that is followed by its output."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL):
        for chunk in re.split(r"^(?=\$ )", block.replace("\\\n", ""), flags=re.MULTILINE):
            command, _, output = chunk.partition("\n")
            if command.startswith("$ jetdiff ") and output:
                examples.append((command[2:], output))
    return examples


def test_readme_command_examples_print_what_is_shown(capsys):
    examples = shell_examples()
    names = [shlex.split(command)[1] for command, _ in examples]
    assert names == ["basis", "dim", "decompose", "verify", "verify"]
    for command, output in examples:
        assert main(shlex.split(command, comments=True)[1:]) == 0, command
        assert capsys.readouterr().out == output, command
