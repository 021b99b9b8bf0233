import re
import shlex
from pathlib import Path

from rwafidelity import cli

README = Path(__file__).parents[1] / "README.md"


def _blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.S | re.M)


def test_readme_python_blocks_run():
    # the quickstart is executed, so a renamed or moved name breaks a test, not only the docs
    blocks = _blocks(README.read_text(), "python")
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_command_lines_run(tmp_path, monkeypatch):
    # each command of the "Command line" section, with that section's JSON document as scan.json;
    # run in order, no line overwrites a file an earlier line wrote
    section = README.read_text().split("## Command line", 1)[1]
    commands = [shlex.split(line) for line in _blocks(section, "")[0].replace("\\\n", " ").splitlines()]
    assert commands and all(argv[0] == "rwafidelity" for argv in commands)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scan.json").write_text(_blocks(section, "json")[0])
    written = []
    write_output = cli._write_output
    monkeypatch.setattr(cli, "_write_output", lambda cfg, *rest: (written.append(cfg.output_path), write_output(cfg, *rest)))
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
    assert len(set(written)) == len(written) >= 2, written
