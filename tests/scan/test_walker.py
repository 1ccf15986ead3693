"""Project-tree walking: determinism, pruning, exclusion patterns."""

import pytest

from repro.scan.walker import walk_source_files

#: The walk restricted to Python sources.
PY = (".py",)


def _tree(tmp_path, files):
    for rel in files:
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("def f(x):\n    return x\n")
    return tmp_path


class TestWalk:
    def test_sorted_and_recursive(self, tmp_path):
        root = _tree(tmp_path, ["b.py", "a.py", "pkg/z.py", "pkg/a.py"])
        found = [
            p.relative_to(root).as_posix()
            for p in walk_source_files(root, suffixes=PY)
        ]
        assert found == ["a.py", "b.py", "pkg/a.py", "pkg/z.py"]

    def test_single_file_root(self, tmp_path):
        root = _tree(tmp_path, ["one.py"])
        assert walk_source_files(root / "one.py", suffixes=PY) == [root / "one.py"]
        (root / "notes.txt").write_text("x")
        assert walk_source_files(root / "notes.txt", suffixes=PY) == []

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            walk_source_files(tmp_path / "nope", suffixes=PY)

    def test_default_pruning(self, tmp_path):
        root = _tree(
            tmp_path,
            [
                "keep.py",
                ".git/hook.py",
                "__pycache__/junk.py",
                "build/gen.py",
                "pkg.egg-info/meta.py",
                ".hidden.py",
            ],
        )
        found = [p.name for p in walk_source_files(root, suffixes=PY)]
        assert found == ["keep.py"]

    def test_virtualenv_pruned_structurally(self, tmp_path):
        root = _tree(tmp_path, ["keep.py", "env39/lib/site.py"])
        (root / "env39" / "pyvenv.cfg").write_text("home = /usr\n")
        assert [p.name for p in walk_source_files(root, suffixes=PY)] == ["keep.py"]

    def test_exclude_patterns(self, tmp_path):
        root = _tree(tmp_path, ["keep.py", "gen_pb2.py", "vendor/dep.py"])
        found = [
            p.name
            for p in walk_source_files(
                root, exclude=["*_pb2.py", "vendor"], suffixes=PY
            )
        ]
        assert found == ["keep.py"]

    def test_exclude_matches_relative_path(self, tmp_path):
        root = _tree(tmp_path, ["keep.py", "a/b/skip.py"])
        found = [
            p.name
            for p in walk_source_files(root, exclude=["a/b/skip.py"], suffixes=PY)
        ]
        assert found == ["keep.py"]
