"""The README's examples, run against the code they describe."""
import importlib
import operator
import re
import shlex
from pathlib import Path

import pytest

from su3bench import cli, native

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def _cli_examples() -> dict[str, tuple[list[str], list[str]]]:
    """Each `$ python3 -m su3bench ...` block: its arguments and printed lines."""
    examples = {}
    for block in re.findall(r"^```\n\$ python3 -m su3bench (.*?)\n```$", README, re.S | re.M):
        command, *lines = block.split("\n")
        args = shlex.split(command)
        examples[" ".join(args[:2])] = (args, lines)
    return examples


def _shown_commands() -> list[str]:
    """The arguments of every other `python3 -m su3bench ...` line in a
    fenced block: commands shown without their output, parsed, not run."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```$", README, re.S | re.M)
    prefix = "python3 -m su3bench "
    return [line[len(prefix):] for block in blocks for line in block.splitlines() if line.startswith(prefix)]


CLI_EXAMPLES = _cli_examples()
SHOWN_COMMANDS = _shown_commands()


def test_library_quick_start_runs_and_prints_what_it_says(capsys):
    code = re.search(r"```python\n(.*?)```", _section("Library quick start"), re.S).group(1)
    exec(compile(code, "README quick start", "exec"), {})
    expected = [line.split("# ", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    assert capsys.readouterr().out.splitlines() == expected


def test_readme_shows_the_flops_examples():
    assert {"flops --routines", "flops --lane-ops"} <= set(CLI_EXAMPLES)


@pytest.mark.parametrize("example", sorted(CLI_EXAMPLES))
def test_cli_example_matches_real_output(example, capsys):
    # An example ending in "..." shows only the first lines of the output.
    args, lines = CLI_EXAMPLES[example]
    assert cli.main(args) == 0
    printed = capsys.readouterr().out.splitlines()
    if lines[-1] == "...":
        lines = lines[:-1]
        printed = printed[: len(lines)]
    assert printed == lines


def test_readme_shows_the_bench_commands():
    assert {"bench", "lattice-bench"} <= {command.split()[0] for command in SHOWN_COMMANDS}


@pytest.mark.parametrize("command", SHOWN_COMMANDS)
def test_shown_command_parses(command, capsys):
    # A flag the parser no longer has, or a bad value, fails here.
    try:
        cli.build_parser().parse_args(shlex.split(command, comments=True))
    except SystemExit:
        pytest.fail(f"README command does not parse: {command}\n{capsys.readouterr().err}")


def test_layout_lists_exactly_the_package_modules():
    # Package entry files (__init__, __main__) are not listed.
    block = re.search(r"```\nsrc/su3bench/\n(.*?)```", _section("Layout"), re.S).group(1)
    listed = re.findall(r"^  (\w+\.py) ", block, re.M)
    modules = sorted(p.name for p in (ROOT / "src" / "su3bench").glob("*.py") if not p.name.startswith("__"))
    assert sorted(listed) == modules and len(listed) == len(set(listed))


def test_module_references_name_what_exists():
    # Each backticked `module.attr` whose module is one of the package's
    # (`native.PACK`, `trace.paired`; a file name such as `native.py`
    # aside) resolves, so prose naming deleted code fails here.
    modules = {p.stem for p in (ROOT / "src" / "su3bench").glob("*.py")}
    references = {ref for ref in re.findall(r"`(\w+(?:\.\w+)+)`", README)
                  if ref.split(".")[0] in modules and not ref.endswith(".py")}
    missing = []
    for ref in sorted(references):
        module, attrs = ref.split(".", 1)
        try:
            operator.attrgetter(attrs)(importlib.import_module(f"su3bench.{module}"))
        except AttributeError:
            missing.append(ref)
    assert references and missing == []


def test_the_modules_exports_named_exist():
    # Each "the module's `x`" names an export of the built native module,
    # so prose naming a removed export fails here.
    module = native.load()
    if module is None:
        pytest.skip(f"native extension unavailable: {native.status()}")
    named = set(re.findall(r"\b[Tt]he\s+module's\s+`(\w+)", README))
    assert named and sorted(name for name in named if not hasattr(module, name)) == []
