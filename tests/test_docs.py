"""Docs that cannot drift: every code pointer in the hand-written docs
resolves against the tree.

A backticked ``path.py:symbol`` in ``docs/ARCHITECTURE.md`` or
``README.md`` names a module under ``src/repro/`` (relative to it, or
by a suffix that is unique under it) and an attribute path in that
module; both must exist.  Every ``REPRO_*`` environment variable the
docs mention must still be read somewhere in ``src/``, and every
``python -m repro …`` line in their fenced code blocks must parse with
the CLI's own parser.  A PR that deletes a module, a symbol, a knob, a
subcommand or a flag therefore fails here until its docs follow.
"""

from __future__ import annotations

import functools
import importlib
import os
import re
import shlex

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DOCS = ("docs/ARCHITECTURE.md", "README.md")

#: ``path.py:symbol`` inside one backticked span (``a.py::Test`` and
#: bare ``file:symbol`` prose do not match)
POINTER = re.compile(r"([\w./]+\.py):([A-Za-z_][\w.]*)")
ENV_NAME = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*")
#: a fenced code block's body
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
COMMAND = "python -m repro "


def doc_text(doc: str) -> str:
    with open(os.path.join(ROOT, doc)) as fh:
        return fh.read()


def pointers(doc: str):
    return sorted({m.groups() for span in re.findall(r"`([^`\n]+)`",
                                                      doc_text(doc))
                   for m in POINTER.finditer(span)})


@functools.lru_cache(maxsize=None)
def package_modules():
    """Every module under ``src/repro/``, as a path relative to
    ``src/`` (``repro/sim/engine.py``)."""
    out = []
    for dirpath, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        out += [os.path.relpath(os.path.join(dirpath, f),
                                SRC).replace(os.sep, "/")
                for f in files if f.endswith(".py")]
    return out


def module_for(path: str) -> str:
    """The dotted module a doc path names: relative to ``src/repro/``,
    else a suffix that must be unique."""
    hits = [rel for rel in package_modules() if rel == f"repro/{path}"] \
        or [rel for rel in package_modules()
            if f"/{rel}".endswith(f"/{path}")]
    assert len(hits) == 1, f"`{path}` matches {hits or 'no module'}"
    dotted = hits[0][:-len(".py")].replace("/", ".")
    return dotted[:-len(".__init__")] if dotted.endswith(
        ".__init__") else dotted


CASES = [(doc, path, symbol) for doc in DOCS
         for path, symbol in pointers(doc)]


def test_the_docs_carry_pointers():
    """The pattern still matches the docs' pointer style (a silent
    zero would make the resolution test vacuous)."""
    assert len(pointers("docs/ARCHITECTURE.md")) >= 40


@pytest.mark.parametrize("doc,path,symbol", CASES,
                         ids=[f"{d.split('/')[-1]}:{p}:{s}"
                              for d, p, s in CASES])
def test_pointer_resolves(doc, path, symbol):
    target = importlib.import_module(module_for(path))
    for part in symbol.split("."):
        assert hasattr(target, part), \
            f"{doc}: `{path}:{symbol}` — no {part!r} in {target!r}"
        target = getattr(target, part)


@functools.lru_cache(maxsize=None)
def source_text() -> str:
    chunks = []
    for rel in package_modules():
        with open(os.path.join(SRC, rel)) as fh:
            chunks.append(fh.read())
    return "\n".join(chunks)


@pytest.mark.parametrize("doc", DOCS)
def test_env_vars_exist_in_src(doc):
    names = sorted(set(ENV_NAME.findall(doc_text(doc))))
    missing = [n for n in names if n not in source_text()]
    assert not missing, f"{doc} mentions {missing}, which src/ never reads"


def command_lines(doc: str):
    """The argv of every ``python -m repro …`` line in ``doc``'s fenced
    blocks: ``\\`` continuations joined, ``#`` comments stripped."""
    out = []
    for block in FENCE.findall(doc_text(doc)):
        for line in block.replace("\\\n", " ").splitlines():
            at = line.find(COMMAND)
            if at >= 0:
                out.append(shlex.split(line[at + len(COMMAND):],
                                       comments=True))
    return out


COMMANDS = [(doc, argv) for doc in DOCS for argv in command_lines(doc)]


def test_the_docs_carry_commands():
    """The README still shows its command lines (a silent zero would
    make the parse test vacuous)."""
    assert len(command_lines("README.md")) >= 17


@pytest.mark.parametrize("doc,argv", COMMANDS,
                         ids=[f"{d.split('/')[-1]}:{' '.join(a)}"
                              for d, a in COMMANDS])
def test_command_line_parses(doc, argv, capsys):
    from repro.cli import _build_parser
    try:
        _build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"{doc}: `python -m repro {' '.join(argv)}` does "
                    f"not parse: {capsys.readouterr().err.strip()}")
