#!/usr/bin/env python3
"""Documentation lint: keep README.md and docs/ honest.

Checks, per markdown file:

  * every relative markdown link resolves to an existing file
    (http(s)/mailto links and pure #anchors are skipped);
  * every fenced ```json block parses — either as one JSON document or
    as one document per non-empty line (frame-vocabulary listings);
  * every fenced ```cpp block compiles (g++ -fsyntax-only -std=c++20
    against the repo's include path), trying three harnesses in order:
      1. the block as a full translation unit,
      2. wrapped in `int main() { ... }` under the `cas.hpp` umbrella,
      3. wrapped in a struct with `using namespace cas(::core)` — for
         API-signature fragments that declare members.

Escape hatches, stated in the fence info string:
  ```jsonc          — annotated example (comments / `...` ellipses), parse skipped
  ```cpp fragment   — illustrative fragment, compile skipped

The default run also checks the code: every `*.md` file a file under
src/, tests/, bench/, examples/ or tools/ names (a comment citation, a
printed banner) must exist in the repo, by path or by file name.

Usage: tools/check_docs.py [FILE.md ...]     (default: README.md docs/*.md)
Exits nonzero listing every failure; CI runs it as the docs-lint job.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INCLUDE_DIR = os.path.join(REPO, "src")
CXX = os.environ.get("CXX", "g++")

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
MD_NAME_RE = re.compile(r"[\w./-]*\w\.md\b")
CODE_DIRS = ("src", "tests", "bench", "examples", "tools")
FENCE_RE = re.compile(r"^```(\S*)\s*(.*)$")

CPP_MAIN_WRAP = '#include "cas.hpp"\nint main() {\n%s\nreturn 0;\n}\n'
CPP_STRUCT_WRAP = (
    "#include <span>\n"
    '#include "cas.hpp"\n'
    "using namespace cas;\n"
    "using namespace cas::core;\n"
    "struct DocFragment {\n%s\n};\n"
    "int main() { return 0; }\n"
)

failures = []


def fail(path, line, msg):
    failures.append(f"{path}:{line}: {msg}")


def iter_fences(text):
    """Yield (start_line, info_string, body) for every fenced block."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        m = FENCE_RE.match(lines[i])
        if m and lines[i].startswith("```") and m.group(1) != "":
            info = (m.group(1) + " " + m.group(2)).strip()
            body, start = [], i + 1
            i += 1
            while i < len(lines) and not lines[i].startswith("```"):
                body.append(lines[i])
                i += 1
            yield start, info, "\n".join(body)
        i += 1


def strip_code_spans(text):
    """Remove fenced blocks and inline code so link checking skips them."""
    out, in_fence = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            out.append(re.sub(r"`[^`]*`", "", line))
    return "\n".join(out)


def check_links(path, text):
    base = os.path.dirname(os.path.abspath(path))
    for lineno, line in enumerate(strip_code_spans(text).splitlines(), 1):
        for target in LINK_RE.findall(line):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, ...
                continue
            target = target.split("#", 1)[0]
            if not target:  # pure anchor
                continue
            if not os.path.exists(os.path.join(base, target)):
                fail(path, lineno, f"broken link: {target}")


def check_json(path, lineno, body):
    try:
        json.loads(body)
        return
    except json.JSONDecodeError:
        pass
    # Frame-vocabulary listings: one JSON document per non-empty line.
    for off, line in enumerate(body.splitlines()):
        if not line.strip():
            continue
        try:
            json.loads(line)
        except json.JSONDecodeError as e:
            fail(path, lineno + off + 1, f"json block does not parse: {e.msg}")
            return


def compiles(source):
    with tempfile.NamedTemporaryFile("w", suffix=".cpp", delete=False) as f:
        f.write(source)
        tmp = f.name
    try:
        r = subprocess.run(
            [CXX, "-std=c++20", "-fsyntax-only", "-I", INCLUDE_DIR, tmp],
            capture_output=True,
            text=True,
        )
        return r.returncode == 0, r.stderr
    finally:
        os.unlink(tmp)


def check_cpp(path, lineno, body):
    errors = []
    for harness in (body + "\n", CPP_MAIN_WRAP % body, CPP_STRUCT_WRAP % body):
        ok, stderr = compiles(harness)
        if ok:
            return
        errors.append(stderr)
    first_error = next((l for l in errors[-1].splitlines() if "error:" in l), errors[-1][:200])
    fail(path, lineno, f"cpp block fails to compile under every harness: {first_error}")


def check_file(path):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    check_links(path, text)
    for lineno, info, body in iter_fences(text):
        lang, *attrs = info.split()
        if lang == "json":
            check_json(path, lineno, body)
        elif lang == "cpp" and "fragment" not in attrs:
            check_cpp(path, lineno, body)


def repo_markdown():
    """Repo-relative paths of every markdown file outside build trees."""
    found = []
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [d for d in dirs if not d.startswith(("build", "."))]
        rel = os.path.relpath(root, REPO)
        found += [os.path.normpath(os.path.join(rel, f)) for f in files if f.endswith(".md")]
    return found


def check_code_citations():
    """Every *.md a code file names must exist (by path or file name)."""
    known = repo_markdown()
    this_file = os.path.abspath(__file__)
    for top in CODE_DIRS:
        for root, dirs, files in os.walk(os.path.join(REPO, top)):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            for name in files:
                path = os.path.join(root, name)
                with open(path, encoding="utf-8", errors="ignore") as f:
                    lines = f.read().splitlines()
                for lineno, line in enumerate(lines, 1):
                    for ref in MD_NAME_RE.findall(line):
                        if path == this_file and ref == "FILE.md" and "Usage:" in line:
                            continue  # the placeholder in this script's usage line
                        ref = os.path.normpath(ref)
                        if not any(k == ref or k.endswith(os.sep + ref) for k in known):
                            fail(os.path.relpath(path, REPO), lineno,
                                 f"names {ref}, which is not in the repo")


def main():
    targets = sys.argv[1:]
    if not targets:
        targets = [os.path.join(REPO, "README.md")]
        docs = os.path.join(REPO, "docs")
        if os.path.isdir(docs):
            targets += sorted(
                os.path.join(docs, n) for n in os.listdir(docs) if n.endswith(".md")
            )
        check_code_citations()
    for path in targets:
        check_file(path)
    if failures:
        for f in failures:
            print(f"check_docs: FAIL: {f}", file=sys.stderr)
        sys.exit(1)
    print(f"check_docs: OK ({len(targets)} files)")


if __name__ == "__main__":
    main()
