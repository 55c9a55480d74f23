"""The CLI gives a documented exit code, never a traceback, on any input.

Writing stdout can fail: the reader may close the pipe early, or stdout may
not encode Han text. Both are I/O errors, exit 3. The fuzz cases run main()
in process on arbitrary bytes and text and require a documented exit code
with nothing raised.
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from hannum.cli import main

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _hannum(*argv, **env):
    return subprocess.Popen(
        [sys.executable, "-m", "hannum", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": _SRC, **env},
    )


def test_closed_pipe_exits_3(tmp_path):
    # Far more output than a pipe buffer holds, so the writer meets the
    # closed pipe while it still has records to write.
    path = tmp_path / "big.txt"
    path.write_text("共一百零五人，又十有五。\n" * 20000, encoding="utf-8")
    proc = _hannum("scan", "--json", str(path))
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 3
    assert first.startswith(b'{"byte_offset": 3, ')
    assert "Traceback" not in stderr
    assert stderr == ""


def test_unencodable_stdout_exits_3():
    proc = _hannum("gen", "5", PYTHONIOENCODING="ascii")
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 3
    assert stdout == b""
    lines = stderr.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert "Traceback" not in stderr.decode()


def _run(argv):
    """main(argv)'s exit code with stdout and stderr captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


_INVENTORY = "一二兩两三四五六七八九十百千萬万億亿零〇單单另有又"
_text = st.lists(
    st.one_of(
        st.text(alphabet=_INVENTORY, max_size=8),
        st.sampled_from(["有", "又", "\n", "\ud800", "\udfff", "yī bǎi", "ling"]),
        st.text(max_size=4),
    ),
    max_size=20,
).map("".join)
_file_bytes = st.one_of(
    st.binary(max_size=200),
    _text.map(lambda t: t.encode("utf-8", "surrogatepass")),
)


@settings(max_examples=300, deadline=None)
@given(_file_bytes, st.sampled_from([[], ["--json"], ["--csv"]]))
def test_scan_fuzz(data, mode):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        assert _run(["scan", *mode, path]) in (0, 3)


_pinyin = st.lists(
    st.sampled_from(["yī", "èr", "liǎng", "sān", "shí", "bǎi", "qiān", "wàn",
                     "líng", "yi", "ling", "YĪ", "bai"]),
    max_size=6,
).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["parse", "classify"]), st.one_of(_text, _pinyin))
def test_parse_and_classify_fuzz(command, text):
    assert _run([command, text]) in (0, 1, 2, 3)
