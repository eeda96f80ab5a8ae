"""The README's examples run as written: the library quick start, and each
section of the example configuration through the CLI.  The config key
tables of docs/formats.md are those that the CLI declares."""

import configparser
import re
import warnings
from pathlib import Path

import pytest

from rieszkit.cli import _COMMANDS, main

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text()
FORMATS = (ROOT / "docs" / "formats.md").read_text()


def _block(language, after):
    """Text of the first ```language block that follows the line `after`."""
    tail = README[README.index(after):]
    return re.search(rf"```{language}\n(.*?)```", tail, re.S).group(1)


INI = _block("ini", "Configuration is flat")
SECTIONS = configparser.ConfigParser()
SECTIONS.read_string(INI)


def test_library_quick_start_runs(capsys):
    code = _block("python", "## Library quick start")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("command", SECTIONS.sections())
def test_example_config_section_runs(tmp_path, command):
    cfg = tmp_path / "example.cfg"
    cfg.write_text(INI)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 0


def _key_tables():
    """{subcommand: [(key, default)]} from the tables under "## Config keys";
    a required key has the default ""."""
    text = FORMATS[FORMATS.index("## Config keys"):]
    return {command: [(key, default) for key, default in
                      re.findall(r"^\| `(\w+)` \| (?:`([^`]*)`|required) \|", body, re.M)]
            for command, body in re.findall(r"^### (\w+)\n(.*?)(?=^#|\Z)", text,
                                            re.S | re.M)}


def test_config_key_tables_match_the_cli():
    declared = {command: [(key, default) for key, _, default in keys]
                for command, (_, keys) in _COMMANDS.items()}
    assert _key_tables() == declared
