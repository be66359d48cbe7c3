"""Docs smoke checker: the documentation must actually work.

Scans ``README.md`` and every markdown file under ``docs/`` and
``.claude/skills/`` (the repo's verify notes name files too) and fails
(nonzero exit) unless:

* every fenced ```python code block executes cleanly in a fresh
  subprocess (repo root as cwd, ``src/`` on ``PYTHONPATH``),
* every intra-repo markdown link ``[text](target)`` resolves to an
  existing file or directory, and
* every repo path written in backticks outside a fence -- a path with a
  directory part ending in ``.py``, ``.md``, ``.json``, ``.yml`` or
  ``.toml``, alone or inside a command -- names an existing file under
  the repo root, ``src/`` or ``src/repro/`` (docs write
  ``sharding/cluster.py`` for ``src/repro/sharding/cluster.py``).  A
  bare filename is skipped: the text around it names its directory.

External links (http/https/mailto) and pure-anchor links are skipped;
a ``#fragment`` suffix on a repo path is stripped before resolving.
Non-python fences (sh, text, ascii diagrams) are never executed.

Run from the repo root::

    PYTHONPATH=src python tools/docs_smoke.py
"""

import os
import re
import subprocess
import sys
import textwrap

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FENCE_RE = re.compile(r"^```(\w*)\s*$")
# [text](target) -- skip images' extra ! is harmless (same syntax).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# `...` spans may wrap a line; fenced blocks are blanked out first.
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
REPO_PATH_RE = re.compile(r"(?<![\w./-])((?:[\w.-]+/)+[\w.-]+\.(?:py|md|json|yml|toml))\b")
PATH_ROOTS = ("", "src", os.path.join("src", "repro"))
SNIPPET_TIMEOUT = 120  # seconds per snippet


def doc_files():
    files = [os.path.join(REPO, "README.md")]
    for tree in ("docs", os.path.join(".claude", "skills")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO, tree)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".md"):
                    files.append(os.path.join(dirpath, name))
    return files


def python_snippets(path):
    """Yield (start_line, source) for every fenced python block."""
    snippets = []
    lang, start, lines = None, 0, []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.rstrip("\n")
            match = FENCE_RE.match(line.strip())
            if match is None:
                if lang is not None:
                    lines.append(line)
                continue
            if lang is None:  # opening fence
                lang, start, lines = match.group(1).lower(), lineno, []
            else:  # closing fence
                if lang == "python":  # a fence inside a list item is indented
                    snippets.append((start, textwrap.dedent("\n".join(lines) + "\n")))
                lang = None
    return snippets


def run_snippet(source):
    env = dict(os.environ)
    src = os.path.join(REPO, "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return subprocess.run(
        [sys.executable, "-"],
        input=source,
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
        timeout=SNIPPET_TIMEOUT,
    )


def check_links(path):
    """Return a list of (lineno, target) for broken intra-repo links."""
    broken = []
    base = os.path.dirname(path)
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                target = target.split("#", 1)[0]
                if not target:  # pure anchor
                    continue
                resolved = os.path.normpath(os.path.join(base, target))
                if not os.path.exists(resolved):
                    broken.append((lineno, target))
    return broken


def backticked_paths(path):
    """Yield (lineno, repo path) for every path written in backticks."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    prose, fenced = [], False
    for line in lines:  # blank out fences, keep the line numbers
        if FENCE_RE.match(line.strip()):
            fenced = not fenced
            line = ""
        prose.append("" if fenced else line)
    text = "\n".join(prose)
    for span in CODE_SPAN_RE.finditer(text):
        for match in REPO_PATH_RE.finditer(span.group(1)):
            lineno = text.count("\n", 0, span.start(1) + match.start()) + 1
            yield lineno, match.group(1)


def check_paths(path):
    """Return (paths checked, [(lineno, path)] that name no file)."""
    checked, unresolved = 0, []
    for lineno, target in backticked_paths(path):
        checked += 1
        if not any(os.path.isfile(os.path.join(REPO, root, target)) for root in PATH_ROOTS):
            unresolved.append((lineno, target))
    return checked, unresolved


def main():
    failures = 0
    snippets_run = 0
    links_checked = 0
    paths_checked = 0
    for path in doc_files():
        rel = os.path.relpath(path, REPO)
        if not os.path.exists(path):
            print(f"FAIL {rel}: file missing")
            failures += 1
            continue
        for lineno, target in check_links(path):
            print(f"FAIL {rel}:{lineno}: broken link -> {target}")
            failures += 1
        links_checked += 1
        checked, unresolved = check_paths(path)
        paths_checked += checked
        for lineno, target in unresolved:
            print(f"FAIL {rel}:{lineno}: no such repo path -> {target}")
            failures += 1
        for start, source in python_snippets(path):
            snippets_run += 1
            try:
                result = run_snippet(source)
            except subprocess.TimeoutExpired:
                print(f"FAIL {rel}:{start}: snippet timed out")
                failures += 1
                continue
            if result.returncode != 0:
                print(f"FAIL {rel}:{start}: snippet exited "
                      f"{result.returncode}\n{result.stderr.strip()}")
                failures += 1
            else:
                print(f"ok   {rel}:{start}: snippet ran")
    print(f"docs-smoke: {snippets_run} snippet(s) executed, "
          f"{links_checked} file(s) link-checked, {paths_checked} backticked "
          f"repo path(s) checked, {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
