"""Docs consistency: no dead relative links, the telemetry reference covers
every event kind, and the CLI reference covers every flag the parser knows."""

import re
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.telemetry.events import EVENT_KINDS

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")],
    key=lambda path: path.name,
)

_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")


def relative_links(path):
    for target in _LINK.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target = target.split("#", 1)[0]
        if target:
            yield target


def iter_parsers(parser):
    """The parser and every (nested) subcommand parser."""
    yield parser
    for action in parser._actions:
        choices = getattr(action, "choices", None)
        if isinstance(choices, dict):  # a subcommand table, not a value set
            for subparser in choices.values():
                yield from iter_parsers(subparser)


class TestLinks:
    def test_docs_exist(self):
        assert len(DOC_FILES) >= 5  # README + the four reference pages

    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_no_dead_relative_links(self, path):
        missing = [
            target
            for target in relative_links(path)
            if not (path.parent / target).exists()
        ]
        assert not missing, f"dead links in {path.name}: {missing}"


class TestTelemetryReference:
    def test_every_event_kind_is_documented(self):
        text = (REPO_ROOT / "docs" / "telemetry.md").read_text()
        undocumented = [
            kind for kind in sorted(EVENT_KINDS) if f"`{kind}`" not in text
        ]
        assert not undocumented, f"event kinds missing from docs: {undocumented}"


def parser_flags():
    flags = set()
    for parser in iter_parsers(build_parser()):
        for action in parser._actions:
            flags.update(
                option
                for option in action.option_strings
                if option.startswith("--") and option != "--help"
            )
    return flags


def parser_commands():
    commands = set()
    for action in build_parser()._actions:
        commands.update(getattr(action, "choices", None) or {})
    return commands


class TestCliReference:
    def test_every_flag_is_documented(self):
        text = (REPO_ROOT / "docs" / "cli.md").read_text()
        undocumented = sorted(flag for flag in parser_flags() if flag not in text)
        assert not undocumented, f"flags missing from docs/cli.md: {undocumented}"

    def test_every_documented_flag_exists(self):
        text = (REPO_ROOT / "docs" / "cli.md").read_text()
        documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
        # --help is argparse's own; --history belongs to compare_bench.py.
        unknown = sorted(documented - parser_flags() - {"--help", "--history"})
        assert not unknown, f"docs/cli.md documents unknown flags: {unknown}"

    def test_every_command_is_documented(self):
        text = (REPO_ROOT / "docs" / "cli.md").read_text()
        undocumented = sorted(
            command for command in parser_commands() if f"`{command}" not in text
        )
        assert not undocumented, f"commands missing from docs/cli.md: {undocumented}"

    def test_every_documented_command_exists(self):
        text = (REPO_ROOT / "docs" / "cli.md").read_text()
        documented = {
            name.split()[0]
            for heading in re.findall(r"^### (.+)$", text, re.MULTILINE)
            for name in re.findall(r"`([^`]+)`", heading)
        }
        unknown = sorted(documented - parser_commands())
        assert not unknown, f"docs/cli.md documents unknown commands: {unknown}"
