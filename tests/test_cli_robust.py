"""The CLI gives a documented exit code, never a traceback, on any input.

Writing stdout can fail: the reader may close the pipe early, the device may
be full or fail, or stdout may not encode Han text. Each is an I/O error,
exit 3. The fuzz cases run main()
in process on arbitrary bytes and text and require a documented exit code
with nothing raised.
"""

import contextlib
import errno
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hannum.cli import main

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _hannum(*argv, stdout=subprocess.PIPE, **env):
    return subprocess.Popen(
        [sys.executable, "-m", "hannum", *argv],
        stdout=stdout,
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


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError


def test_closed_pipe_in_process(monkeypatch, capsys):
    # A stream with no file descriptor, then a real pipe whose reader has
    # gone: its descriptor is pointed at devnull, so closing it is quiet.
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["gen", "105"]) == 3
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        assert main(["gen", "105"]) == 3
    assert capsys.readouterr().err == ""


def test_unencodable_stdout_in_process(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
    assert main(["gen", "105"]) == 3
    assert capsys.readouterr().err.startswith("error: cannot write output: ")


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_unencodable_scan_exits_3(tmp_path, mode):
    path = tmp_path / "doc.txt"
    path.write_text("共一百零五人，又十有五。\n" * 50, encoding="utf-8")
    proc = _hannum("scan", *mode, str(path), PYTHONIOENCODING="ascii")
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 3
    assert stdout == b""
    lines = stderr.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")


# One run of each command that writes stdout, and of the top parser's help
# and a subcommand's, which argparse writes; {doc} is a small document.
_HELP = [["--help"], ["gen", "--help"]]
_WRITERS = [
    ["gen", "5"],
    ["parse", "一百"],
    ["classify", "十有五", "--json"],
    ["scan", "--json", "{doc}"],
    ["scan", "{doc}"],
    ["selftest", "--max", "0"],
    *_HELP,
]


def _writer_argv(argv, tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text("共一百零五人，又十有五。\n", encoding="utf-8")
    return [arg.replace("{doc}", str(doc)) for arg in argv]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", _WRITERS, ids=" ".join)
def test_full_device_exits_3(tmp_path, argv):
    # Every write to /dev/full fails with ENOSPC: one error line, no
    # traceback, and nothing left for the flush at exit to complain about.
    with open("/dev/full", "wb") as full:
        proc = _hannum(*_writer_argv(argv, tmp_path), stdout=full)
        _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 3
    err = stderr.decode()
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot write output: ")
    assert "Traceback" not in err
    assert "Exception ignored" not in err


@pytest.mark.parametrize(
    "argv, usage", zip(_HELP, [b"usage: hannum [-h]", b"usage: hannum gen [-h]"])
)
def test_help_on_a_working_stdout_exits_0(argv, usage):
    proc = _hannum(*argv)
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert stdout.startswith(usage)
    assert stderr == b""


class _FailingStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.EIO, os.strerror(errno.EIO))


@pytest.mark.parametrize("argv", _WRITERS, ids=" ".join)
def test_failing_stdout_in_process(monkeypatch, capsys, tmp_path, argv):
    monkeypatch.setattr(sys, "stdout", _FailingStdout())
    assert main(_writer_argv(argv, tmp_path)) == 3
    err = capsys.readouterr().err
    assert err == f"error: cannot write output: [Errno {errno.EIO}] {os.strerror(errno.EIO)}\n"


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
