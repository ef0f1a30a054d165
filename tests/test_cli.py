"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import main


@pytest.fixture()
def facts_csv(tmp_path):
    path = tmp_path / "facts.csv"
    path.write_text(
        "value,start,end\n"
        "2,10,40\n"
        "3,10,30\n"
        "1,20,40\n"
        "2,5,15\n"
        "4,35,45\n"
        "1,10,50\n"
    )
    return str(path)


@pytest.fixture()
def sum_index(tmp_path, facts_csv):
    path = str(tmp_path / "sum.sbt")
    assert main(["build", path, "--kind", "sum", "--csv", facts_csv]) == 0
    return path


@pytest.fixture()
def msb_index(tmp_path, facts_csv):
    path = str(tmp_path / "max.sbt")
    assert main(["build", path, "--kind", "max", "--csv", facts_csv, "--msb"]) == 0
    return path


class TestBuild:
    def test_build_reports_count(self, tmp_path, facts_csv, capsys):
        path = str(tmp_path / "t.sbt")
        main(["build", path, "--kind", "sum", "--csv", facts_csv])
        out = capsys.readouterr().out
        assert "6 facts" in out

    def test_header_line_skipped(self, sum_index):
        # Six data rows, one header: built index answers Figure 3 values.
        assert main(["lookup", sum_index, "19"]) == 0

    def test_explicit_capacities(self, tmp_path, facts_csv):
        path = str(tmp_path / "t.sbt")
        code = main(
            ["build", path, "--kind", "sum", "--csv", facts_csv,
             "--branching", "4", "--leaf-capacity", "4"]
        )
        assert code == 0
        assert main(["verify", path]) == 0


class TestLookup:
    def test_figure3_lookup(self, sum_index, capsys):
        assert main(["lookup", sum_index, "19"]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_windowed_lookup_on_msb(self, msb_index, capsys):
        assert main(["lookup", msb_index, "50", "--window", "20"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_windowed_lookup_rejected_on_plain_tree(self, sum_index, capsys):
        assert main(["lookup", sum_index, "50", "--window", "20"]) == 2
        assert "MSB" in capsys.readouterr().err

    def test_nanosecond_epoch_cells_are_exact(self, tmp_path, capsys):
        # Integral cells past 2**53 parse as ints, not through a double.
        facts = tmp_path / "ns.csv"
        facts.write_text(
            "5,1700000000000000001,1700000000000000003\n"
            "7,1700000000000000002,1700000000000000009\n"
        )
        path = str(tmp_path / "ns.sbt")
        assert main(["build", path, "--kind", "sum", "--csv", str(facts)]) == 0
        capsys.readouterr()
        answers = []
        for t in range(1700000000000000000, 1700000000000000004):
            assert main(["lookup", path, str(t)]) == 0
            answers.append(capsys.readouterr().out.strip())
        assert answers == ["0", "5", "12", "7"]


class TestDumpAndRange:
    def test_dump_matches_figure3(self, sum_index, capsys):
        main(["dump", sum_index])
        out = capsys.readouterr().out
        assert "[5, 10)" in out
        assert "[45, 50)" in out

    def test_dump_limit(self, sum_index, capsys):
        main(["dump", sum_index, "--limit", "2"])
        out = capsys.readouterr().out
        assert "more rows" in out

    def test_dump_to_csv_roundtrips(self, sum_index, tmp_path, capsys):
        out_csv = str(tmp_path / "dump.csv")
        assert main(["dump", sum_index, "--csv", out_csv]) == 0
        from repro import ConstantIntervalTable

        with open(out_csv) as handle:
            table = ConstantIntervalTable.from_csv(handle)
        assert table.value_at(19) == 6
        # The exported CSV is itself valid `build` input.
        rebuilt = str(tmp_path / "rebuilt.sbt")
        assert main(["build", rebuilt, "--kind", "sum", "--csv", out_csv]) == 0
        assert main(["lookup", rebuilt, "19"]) == 0
        assert capsys.readouterr().out.strip().endswith("6")

    def test_range_query(self, sum_index, capsys):
        main(["range", sum_index, "14", "28"])
        out = capsys.readouterr().out
        assert "[14, 15)" in out
        assert "[20, 28)" in out


class TestInspectVerifyCompact:
    def test_inspect_fields(self, sum_index, capsys):
        assert main(["inspect", sum_index]) == 0
        out = capsys.readouterr().out
        for field in ("kind", "branching", "pages", "height", "nodes/level",
                      "leaf fill"):
            assert field in out
        assert "sum" in out

    def test_verify_ok(self, sum_index, capsys):
        assert main(["verify", sum_index]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_compact(self, msb_index, capsys):
        assert main(["compact", msb_index]) == 0
        assert "compacted:" in capsys.readouterr().out
        assert main(["verify", msb_index]) == 0

    def test_inspect_msb(self, msb_index, capsys):
        main(["inspect", msb_index])
        assert "MSB-tree" in capsys.readouterr().out

    def test_read_only_commands_write_nothing(self, sum_index, monkeypatch):
        """A clean open and a clean close: the file stays byte for byte,
        no WAL is created, nothing is synced."""
        with open(sum_index, "rb") as handle:
            before = handle.read()
        fsyncs = []
        monkeypatch.setattr(os, "fsync", fsyncs.append)
        for argv in (["inspect", sum_index], ["lookup", sum_index, "19"],
                     ["verify", sum_index]):
            assert main(argv) == 0
        with open(sum_index, "rb") as handle:
            assert handle.read() == before
        assert not os.path.exists(sum_index + "-wal")
        assert fsyncs == []


def _refused(argv, capsys):
    """Run *argv*, which must exit 2; return its one ``error:`` line."""
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1, errors
    return errors[0]


#: A bad CSV row and the reason its ``error:`` line gives.
BAD_ROWS = {
    "1,20,inf": "not a finite number: 'inf'",
    "nan,20,40": "not a finite number: 'nan'",
    "1,-inf,40": "not a finite number: '-inf'",
    "1,10,5": "empty or inverted interval [10, 5)",
    "1,10": "needs value,start,end: '1,10'",
    "3,5,x": "not a number: 'x'",
}


class TestNonFiniteNumbers:
    """``inf`` and ``nan``, and an empty or inverted interval, are
    refused with one ``error:`` line and exit status 2, never a
    traceback and never silently skipped."""

    def test_read_verbs(self, sum_index, msb_index, capsys):
        for argv, reason in (
            (["lookup", sum_index, "nan"], "not a finite number"),
            (["lookup", msb_index, "50", "--window", "inf"], "not a finite number"),
            (["range", sum_index, "0", "inf"], "not a finite number"),
            (["lookup", sum_index, "x"], "not a number: 'x'"),
            (["range", sum_index, "10", "5"], "empty or inverted range [10, 5)"),
            (["range", sum_index, "5", "5"], "empty or inverted range [5, 5)"),
        ):
            assert reason in _refused(argv, capsys), argv
        # The range is refused before the file is opened.
        missing = os.path.join(os.path.dirname(sum_index), "missing.sbt")
        assert "inverted" in _refused(["range", missing, "10", "5"], capsys)

    @pytest.mark.parametrize("row", BAD_ROWS)
    def test_build_names_the_line(self, tmp_path, row, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"value,start,end\n2,10,40\n\n{row}\n3,10,30\n")
        path = tmp_path / "bad.sbt"
        error = _refused(["build", str(path), "--kind", "sum", "--csv", str(bad)], capsys)
        assert error == f"error: {bad}, line 4: {BAD_ROWS[row]}", error
        assert os.listdir(tmp_path) == ["bad.csv"]  # refused before any file is made

    def test_serve_span_cuts_and_seed(self, tmp_path, capsys):
        serve = ["serve", "--kind", "sum", "--port", "0"]
        assert "--hi" in _refused(serve + ["--lo", "0", "--hi", "inf"], capsys)
        assert "--lo" in _refused(serve + ["--lo", "nan"], capsys)
        assert "--boundaries" in _refused(serve + ["--boundaries", "10,nan"], capsys)
        for row in ("3,inf,30", "1,10,5", "1,10", "3,5,x"):
            reason = BAD_ROWS.get(row, "not a finite number: 'inf'")
            bad = tmp_path / "bad.csv"
            bad.write_text(f"value,start,end\n\n2,10,40\n{row}\n")
            directory = tmp_path / "shards"
            error = _refused(serve + ["--csv", str(bad), "--paged", str(directory)], capsys)
            assert error == f"error: {bad}, line 4: {reason}", error
            assert not directory.exists()  # refused before a shard file is made

    def test_view_verbs(self, capsys):
        # Refused while parsing: no server is listening on port 1.
        error = _refused(["view", "insert", "t", "--row", "nan,0,5", "--port", "1"], capsys)
        assert "not a finite number: 'nan'" in error
        error = _refused(["view", "query", "v", "--at", "inf", "--port", "1"], capsys)
        assert "not a finite number: 'inf'" in error


class TestEntryPoint:
    def test_module_invocation(self, sum_index):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lookup", sum_index, "19"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "6"

    def test_usage_error(self):
        with pytest.raises(SystemExit):
            main([])
