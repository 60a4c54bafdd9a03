import os

import pytest

from semproto.atomic import atomic_write


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write(path, b"old\n")
        atomic_write(str(path), b"new\n")
        assert path.read_bytes() == b"new\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_relative_path_lands_in_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        atomic_write("out.json", b"x")
        assert (tmp_path / "out.json").read_bytes() == b"x"
        assert os.listdir(tmp_path) == ["out.json"]

    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_failure_midway_keeps_old_content_and_no_temp(self, tmp_path,
                                                          monkeypatch, step):
        path = tmp_path / "out.json"
        path.write_bytes(b"old\n")

        def boom(*args):
            raise OSError("disk full")

        monkeypatch.setattr(os, step, boom)
        with pytest.raises(OSError, match="disk full"):
            atomic_write(path, b"new\n")
        monkeypatch.undo()
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_error_during_write_removes_temp(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_bytes(b"old\n")
        with pytest.raises(TypeError):
            atomic_write(path, "not bytes")
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_two_writers_to_one_path_use_distinct_temp_files(self, tmp_path,
                                                             monkeypatch):
        path = tmp_path / "out.json"
        real_fsync, real_replace = os.fsync, os.replace
        temps, nested = [], []

        def fsync_then_second_writer(fd):
            real_fsync(fd)
            if not nested:  # the second writer runs while the first is mid-write
                nested.append(True)
                atomic_write(path, b"second\n")

        def recording_replace(src, dst):
            temps.append(src)
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync_then_second_writer)
        monkeypatch.setattr(os, "replace", recording_replace)
        atomic_write(path, b"first\n")
        monkeypatch.undo()
        assert len(temps) == 2 and temps[0] != temps[1]
        # the first writer renamed last, and its bytes were not clobbered
        assert path.read_bytes() == b"first\n"
        assert os.listdir(tmp_path) == ["out.json"]

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
    def test_mode_follows_umask(self, tmp_path, umask):
        path = tmp_path / "out.json"
        old = os.umask(umask)
        try:
            atomic_write(path, b"x")
        finally:
            os.umask(old)
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask
