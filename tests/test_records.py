import os

import pytest

from wgqed import records


class TestWriteText:
    @pytest.mark.parametrize("old, new", [("x" * 5000 + "\n", "short\n"), ("short\n", "y" * 5000 + "\n")])
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, old, new):
        path = tmp_path / "artifact.csv"
        records.write_text(path, old)
        records.write_text(path, new)
        assert path.read_bytes() == new.encode("utf-8")

    def test_text_is_written_as_utf8_with_lf(self, tmp_path):
        path = tmp_path / "artifact.json"
        records.write_text(path, "a\nµ\n")
        assert path.read_bytes() == b"a\n\xc2\xb5\n"

    def test_existing_file_keeps_inode_and_mode(self, tmp_path):
        path = tmp_path / "artifact.csv"
        records.write_text(path, "first\n")
        os.chmod(path, 0o640)
        before = os.stat(path)
        records.write_text(path, "second, longer\n")
        after = os.stat(path)
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_new_file_mode_matches_open_for_writing(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            with open(tmp_path / "reference.csv", "w") as fh:
                fh.write("x\n")
            records.write_text(tmp_path / "artifact.csv", "x\n")
        finally:
            os.umask(previous)
        reference = os.stat(tmp_path / "reference.csv").st_mode
        assert os.stat(tmp_path / "artifact.csv").st_mode == reference

    def test_missing_parent_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            records.write_text(tmp_path / "missing" / "artifact.csv", "x\n")

