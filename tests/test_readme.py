"""The README's CLI examples and library quick reference match the package."""

import importlib
import json
import re
import shlex
from pathlib import Path

import repcore
from repcore.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(title):
    """The README text from the `## title` heading up to the next one."""
    start = README.index(f"\n## {title}\n")
    return README[start : README.index("\n## ", start + 1)]


def cli_examples():
    """(argv, expected stdout) for every `$ repcore ...` line of the CLI section."""
    block = section("CLI").split("```\n")[1]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *output = chunk.splitlines()
        assert command.startswith("$ repcore "), command
        stdout = "".join(f"{line}\n" for line in output)
        examples.append((shlex.split(command)[2:], stdout))
    return examples


def test_readme_cli_examples(capsys):
    examples = cli_examples()
    assert [argv[0] for argv, _ in examples] == [
        "build", "core", "occurrences", "occurrences", "parse", "scan", "verify",
        "verify",
    ]
    for argv, expected in examples:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        if expected.endswith(", ...}\n"):
            # an elided JSON document: the keys shown carry the values shown
            shown = json.loads(expected.replace(", ...}", "}"))
            doc = json.loads(out)
            assert {key: doc[key] for key in shown} == shown, argv
        else:
            assert out == expected, argv


def test_readme_quick_reference_is_the_top_level_api():
    block = section("Library quick reference")
    imports = re.search(r"from repcore import \((.*?)\)", block, re.S).group(1)
    names = set(re.findall(r"\b\w+\b", re.sub(r"#.*", "", imports)))
    assert len(names) == 17
    assert set(repcore.__all__) == names | {"errors"}
    assert all(hasattr(repcore, name) for name in repcore.__all__)


def test_readme_submodule_names_exist():
    block = section("Library quick reference")
    start = block.index("Everything else is imported from its submodule")
    sentence = block[start : block.index(").", start) + 1]
    listed = re.findall(r"`repcore\.(\w+)`\s*\(([^)]*)\)", sentence)
    modules = {module for module, _ in listed}
    assert modules == {"words", "interrupts", "verify", "locate"}
    for module, names in listed:
        submodule = importlib.import_module(f"repcore.{module}")
        for name in re.findall(r"`(\w+)`", names):
            assert hasattr(submodule, name), f"repcore.{module}.{name}"
