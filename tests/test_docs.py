import argparse
import importlib
import re
import shlex
from pathlib import Path

import pytest

import netvar
from netvar import cli

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])  # the second writes a mark
def test_readme_library_example_runs(encoding, tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n+```python\n(.*?)```", text, re.S)
    assert block, "README has no Library code block"
    (tmp_path / "graphs.txt").write_text("nodes A B C\ngraph\nA B\ngraph\nB C\nA C\ngraph\n",
                                         encoding=encoding)
    monkeypatch.chdir(tmp_path)
    exec(compile(block.group(1), "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "total" in out and "McEstimate(" in out


def test_exports_resolve_sorted_and_unique():
    names = netvar.__all__
    missing = [name for name in names if not hasattr(netvar, name)]
    assert not missing
    assert names == sorted(names)
    assert len(names) == len(set(names))


def test_each_export_is_defined_in_its_table_module():
    # a name listed under two modules fails for one of them
    for module, names in netvar._EXPORTS.items():
        for name in names:
            assert getattr(netvar, name).__module__ == f"netvar.{module}", name
    assert set(netvar.__all__) <= set(dir(netvar))


def test_readme_command_lines_parse():
    # parsing only: every documented invocation names existing flags
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S)
    assert block, "README has no Command line code block"
    lines = [line for line in block.group(1).splitlines() if line.startswith("netvar ")]
    assert len(lines) >= 5
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
    # and every subcommand is shown
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert {line.split()[1] for line in lines} == set(subparsers.choices)


def test_docstring_function_references_resolve():
    # each :func:`name` in the package names a callable of the module it is written in
    references = 0
    for path in sorted(Path(netvar.__file__).parent.glob("*.py")):
        module = importlib.import_module(
            "netvar" if path.stem == "__init__" else f"netvar.{path.stem}")
        for name in re.findall(r":func:`([^`]+)`", path.read_text(encoding="utf-8")):
            references += 1
            assert callable(getattr(module, name, None)), f"{path.name}: {name}"
    assert references > 0
