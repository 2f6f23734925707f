"""The command-line examples in README.md run as shown: each
`$ zeta-explicit ...` command in the Command line section's code block
exits 0 and prints every output line shown under it (whitespace
normalised; `...` lines stand for omitted output)."""

import shlex
from pathlib import Path

import pytest

from zeta_explicit.cli import ENV_ZEROS, EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[tuple[str, list[str]]]:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line"):]
    block = section[section.index("```sh\n") + len("```sh\n"):]
    block = block[:block.index("```")]
    examples: list[tuple[str, list[str]]] = []
    continued = False
    for line in block.splitlines():
        if continued:
            examples[-1] = (examples[-1][0] + " " + line.strip().rstrip("\\"),
                            examples[-1][1])
            continued = line.rstrip().endswith("\\")
        elif line.startswith("$ zeta-explicit "):
            examples.append((line[len("$ zeta-explicit "):].rstrip("\\").strip(), []))
            continued = line.rstrip().endswith("\\")
        elif line.strip() and not line.startswith("#") and line.strip() != "...":
            examples[-1][1].append(" ".join(line.split()))
    return examples


EXAMPLES = _examples()


def test_readme_has_the_examples():
    assert len(EXAMPLES) == 10


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_runs_as_shown(capsys, monkeypatch, command, shown):
    monkeypatch.delenv(ENV_ZEROS, raising=False)
    assert main(shlex.split(command)) == EXIT_OK
    printed = {" ".join(line.split()) for line in capsys.readouterr().out.splitlines()}
    missing = [line for line in shown if line not in printed]
    assert not missing, f"not in the output of {command!r}: {missing}"
