"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main
from repro.storage.diskindex import DiskMStarIndex
from repro.storage.serialization import load_graph


@pytest.fixture
def document(tmp_path):
    path = str(tmp_path / "doc.rpgr")
    assert main(["generate", "--dataset", "xmark", "--scale", "0.01",
                 "--seed", "3", "-o", path]) == 0
    return path


class TestGenerate:
    def test_writes_loadable_graph(self, document):
        graph = load_graph(document)
        assert graph.num_nodes > 100

    def test_nasa_dataset(self, tmp_path, capsys):
        path = str(tmp_path / "nasa.rpgr")
        assert main(["generate", "--dataset", "nasa", "--scale", "0.01",
                     "-o", path]) == 0
        assert "wrote" in capsys.readouterr().out
        assert "dataset" in load_graph(path).alphabet()

    def test_deterministic_by_seed(self, tmp_path):
        first = str(tmp_path / "a.rpgr")
        second = str(tmp_path / "b.rpgr")
        for path in (first, second):
            main(["generate", "--scale", "0.01", "--seed", "9", "-o", path])
        assert load_graph(first).labels == load_graph(second).labels


class TestStats:
    def test_prints_structure(self, document, capsys):
        assert main(["stats", document]) == 0
        out = capsys.readouterr().out
        assert "alphabet" in out
        assert "1-index size" in out

    def test_accepts_xml(self, tmp_path, capsys):
        path = str(tmp_path / "d.xml")
        with open(path, "w") as handle:
            handle.write("<r><a/><a/></r>")
        assert main(["stats", path]) == 0
        assert "nodes=4" in capsys.readouterr().out


class TestIndexAndQuery:
    def test_index_roundtrip(self, document, tmp_path, capsys):
        index_path = str(tmp_path / "i.seg")
        assert main(["index", document, "-o", index_path,
                     "--queries", "30"]) == 0
        with DiskMStarIndex(index_path, load_graph(document)) as disk:
            disk.to_memory().check_invariants()

    def test_index_with_disk_output(self, document, tmp_path, capsys):
        """The one file ``index -o`` writes is the paged disk index
        (there is no separate ``--disk`` output)."""
        index_path = str(tmp_path / "i.seg")
        assert main(["index", document, "-o", index_path,
                     "--queries", "20"]) == 0
        with DiskMStarIndex(index_path, load_graph(document)) as disk:
            assert disk.num_components >= 1
            assert disk.page_count >= 1
        with pytest.raises(SystemExit):
            main(["index", document, "-o", index_path, "--disk", "x"])

    def test_query_without_index(self, document, capsys):
        assert main(["query", document, "//person", "-v"]) == 0
        out = capsys.readouterr().out
        assert "answers" in out
        assert "oids" in out

    def test_query_with_index_and_refine(self, document, tmp_path, capsys):
        index_path = str(tmp_path / "i.seg")
        main(["index", document, "-o", index_path, "--queries", "10"])
        assert main(["query", document, "--index", index_path, "--refine",
                     "//people/person"]) == 0
        out = capsys.readouterr().out
        assert "updated in place" in out
        # The refreshed index now answers the query precisely.
        from repro.queries.pathexpr import PathExpression
        with DiskMStarIndex(index_path, load_graph(document)) as disk:
            assert not disk.query(
                PathExpression.parse("//people/person")).validated


class TestReport:
    def test_tiny_report(self, tmp_path, capsys):
        out_path = str(tmp_path / "report.md")
        assert main(["report", "--scale", "0.005", "--queries", "15",
                     "-o", out_path]) == 0
        with open(out_path) as handle:
            content = handle.read()
        assert "Figure 8" in content
        assert "Figures 25-26" in content

    def test_report_to_stdout(self, capsys):
        assert main(["report", "--scale", "0.005", "--queries", "10"]) == 0
        assert "Experiment report" in capsys.readouterr().out


class TestVerify:
    def test_small_campaign_passes(self, capsys):
        assert main(["verify", "--rounds", "2", "--queries", "8",
                     "--engine-queries", "10"]) == 0
        out = capsys.readouterr().out
        assert "verify: OK" in out
        assert "2 rounds" in out

    def test_replay_single_graph(self, capsys):
        assert main(["verify", "--profile", "dag", "--graph-seed", "5",
                     "--queries", "8", "--engine-queries", "10"]) == 0
        out = capsys.readouterr().out
        assert "verify: OK" in out
        assert "1 graphs" in out

    def test_family_subset(self, capsys):
        assert main(["verify", "--rounds", "1", "--queries", "6",
                     "--engine-queries", "8",
                     "--indexes", "DataGuide,1"]) == 0
        assert "verify: OK" in capsys.readouterr().out

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown index family"):
            main(["verify", "--rounds", "1", "--indexes", "nonsense"])


class TestOoc:
    def test_check_with_output_keeps_only_the_requested_file(
            self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["ooc", "--scale", "0.005", "--k", "3",
                     "--budget", "4096", "--page-size", "512",
                     "--queries", "8", "--check",
                     "-o", str(out_dir / "a.seg")]) == 0
        assert "check OK" in capsys.readouterr().out
        assert [entry.name for entry in out_dir.iterdir()] == ["a.seg"]

    def test_budget_below_the_floor_leaves_the_output_alone(
            self, tmp_path, capsys):
        kept = tmp_path / "keep.seg"
        kept.write_bytes(b"an index someone wants to keep")
        assert main(["ooc", "--scale", "0.005", "--k", "3",
                     "--budget", "100", "-o", str(kept)]) == 2
        captured = capsys.readouterr()
        assert captured.err == \
            "ooc: error: budget must be >= 4096 bytes, got 100\n"
        assert kept.read_bytes() == b"an index someone wants to keep"


class TestRemovedCommands:
    def test_bench_is_rejected_and_unlisted(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--smoke"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "bench" not in capsys.readouterr().out
