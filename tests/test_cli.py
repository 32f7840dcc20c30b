"""Tests for the powerplanningdl command-line interface."""

import re

import pytest

from repro.analysis import solvers
from repro.cli import build_parser, main
from repro.grid import write_netlist


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subactions = [
            action for action in parser._actions if hasattr(action, "choices") and action.choices
        ]
        commands = set(subactions[0].choices)
        assert commands == {"generate", "analyze", "plan", "train", "predict", "sweep", "lint"}

    def test_unknown_benchmark_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "not_a_benchmark", "out.spice"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", ["plan", "sweep"])
    def test_solver_option_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "ibmpg1", "--solver", "splu"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --solver splu" in capsys.readouterr().err

    def test_plan_oracle_option_rejected(self, capsys):
        """Every plan refactorizes each resize fresh, so there is no
        separate oracle loop to select."""
        with pytest.raises(SystemExit) as exit_info:
            main(["plan", "ibmpg1", "--oracle"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --oracle" in capsys.readouterr().err


class TestGenerateAndAnalyze:
    def test_generate_uniform_then_analyze(self, tmp_path, capsys):
        netlist = tmp_path / "ibmpg1.spice"
        assert main(["generate", "ibmpg1", str(netlist), "--width", "6.0"]) == 0
        assert netlist.exists()
        output = capsys.readouterr().out
        assert "generated netlist" in output
        assert "nodes" in output

        assert main(["analyze", str(netlist), "--top", "3"]) == 0
        output = capsys.readouterr().out
        assert "worst-case IR drop (mV)" in output
        assert "3 worst nodes" in output

    def test_analyze_missing_file_errors(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "missing.spice")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_analyze_rejects_a_floating_island(self, tmp_path, capsys, floating_island):
        netlist = write_netlist(floating_island, tmp_path / "island.spice")
        assert main(["analyze", str(netlist)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: grid ")
        assert "4 node(s) with no resistive path to a pad or ground" in lines[0]

    def test_analyze_rejects_a_netlist_without_pads(self, tmp_path, capsys):
        netlist = tmp_path / "no_pads.spice"
        netlist.write_text("R1 n1 n2 1.0\nI1 n2 0 0.01\n.end\n")
        assert main(["analyze", str(netlist)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: network has no voltage sources; the nodal system is singular"
        ]

    @pytest.mark.parametrize(
        "line, message",
        [
            ("R1 n1 n2 abc", "line 2: invalid SPICE number 'abc'"),
            ("R1 n1 n2 1x", "line 2: unknown SI suffix in '1x'"),
            ("C1 n1 n2 1.0", "line 2: unsupported element 'C1'"),
            ("R1 n1 n2 0", "resistor 'R1' must have positive resistance"),
        ],
        ids=["not-a-number", "unknown-suffix", "unsupported-element", "zero-ohm"],
    )
    def test_analyze_rejects_a_malformed_netlist(self, tmp_path, capsys, line, message):
        netlist = tmp_path / "malformed.spice"
        netlist.write_text(f"V1 n1 0 1.0\n{line}\nI1 n2 0 0.01\n.end\n")
        assert main(["analyze", str(netlist)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_analyze_reports_an_out_of_memory_factorization(
        self, tmp_path, capsys, monkeypatch
    ):
        netlist = tmp_path / "ibmpg1.spice"
        assert main(["generate", "ibmpg1", str(netlist), "--width", "6.0"]) == 0
        capsys.readouterr()

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(solvers.spla, "splu", exhausted)
        assert main(["analyze", str(netlist)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert re.fullmatch(r"error: factorization of \d+ unknowns ran out of memory", lines[0])


class TestPlan:
    def test_plan_converges_and_writes_netlist(self, tmp_path, capsys):
        out = tmp_path / "sized.spice"
        assert main(["plan", "ibmpg1", "--netlist-out", str(out)]) == 0
        assert out.exists()
        output = capsys.readouterr().out
        assert "conventional power planning" in output
        assert "converged" in output

    def test_plan_search_reports_counters_and_record(self, tmp_path, capsys):
        record_path = tmp_path / "plan.json"
        assert (
            main(
                [
                    "plan", "ibmpg1",
                    "--search", "--min-width-start",
                    "--json-out", str(record_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "batched planner search" in output
        assert "candidates generated" in output
        assert "moves committed" in output
        assert "factorizations" in output
        assert "incremental updates" not in output
        assert "update fallbacks" not in output
        assert record_path.exists()

        import json

        record = json.loads(record_path.read_text())
        assert record["factorizations"] > record["search"]["moves_committed"]
        for key in ("updates", "update_fallbacks", "warmup_time"):
            assert key not in record
        assert "warm-up time" not in output
        search = record["search"]
        assert search["candidates_generated"] > 0
        assert search["moves_committed"] > 0
        assert search["candidates_generated"] == (
            search["candidates_pruned"] + search["candidates_solved"]
        )
        assert search["candidates_pruned"] == 0  # exact mode
        assert not search["ranker_used"]

    def test_plan_ranker_implies_search(self, tmp_path, capsys):
        record_path = tmp_path / "plan_ranker.json"
        assert (
            main(
                [
                    "plan", "ibmpg1",
                    "--ranker", "--batch-width", "8", "--min-width-start",
                    "--json-out", str(record_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "batched planner search" in output
        assert "warm-up time (s)" in output

        import json

        record = json.loads(record_path.read_text())
        # The exact warm-up plan and the ranker fit are timed apart from
        # the pruned re-plan.
        assert record["warmup_time"] > 0
        assert record["total_time"] > 0
        search = record["search"]
        assert search["ranker_used"]
        assert search["candidates_pruned"] > 0
        assert search["candidates_generated"] == (
            search["candidates_pruned"] + search["candidates_solved"]
        )

    def test_plan_record_without_search_has_no_counters(self, tmp_path):
        record_path = tmp_path / "plain.json"
        assert main(["plan", "ibmpg1", "--json-out", str(record_path)]) == 0

        import json

        record = json.loads(record_path.read_text())
        for key in ("search", "backend", "updates", "update_fallbacks", "warmup_time"):
            assert key not in record
        assert record["converged"]
        assert record["factorizations"] >= 1


class TestTrainPredict:
    def test_train_then_predict_roundtrip(self, tmp_path, capsys):
        model = tmp_path / "model.npz"
        assert (
            main(
                [
                    "train", "ibmpg1", str(model),
                    "--epochs", "20", "--hidden-layers", "2", "--hidden-width", "16",
                ]
            )
            == 0
        )
        assert model.exists()
        output = capsys.readouterr().out
        assert "training r2" in output

        assert main(["predict", "ibmpg1", str(model), "--gamma", "0.1", "--verify"]) == 0
        output = capsys.readouterr().out
        assert "predicted worst IR drop (mV)" in output
        assert "verified worst IR drop (mV)" in output

    def test_predict_missing_model_errors(self, tmp_path, capsys):
        assert main(["predict", "ibmpg1", str(tmp_path / "missing.npz")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_predict_bad_gamma_errors(self, tmp_path):
        model = tmp_path / "model.npz"
        model.write_bytes(b"placeholder")
        assert main(["predict", "ibmpg1", str(model), "--gamma", "0.9"]) == 2


class TestSweep:
    def test_sweep_prints_summary_and_writes_record(self, tmp_path, capsys):
        record_path = tmp_path / "sweep.json"
        assert (
            main(
                [
                    "sweep", "ibmpg1",
                    "--num-loads", "6", "--num-pads", "4",
                    "--chunk-size", "7", "--top-k", "3",
                    "--json-out", str(record_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "streamed mega-sweep" in output
        assert "6 x 4 = 24" in output
        assert "P99 worst drop (mV)" in output
        assert "top-3 worst scenarios" in output
        assert record_path.exists()

        import json

        record = json.loads(record_path.read_text())
        assert record["num_scenarios"] == 24
        assert record["chunk_size"] == 7
        assert len(record["top_scenarios"]) == 3
        assert record["factorizations"] == 1
        for key in ("solver_backend", "incremental_updates", "update_fallbacks"):
            assert key not in record

    def test_sweep_bad_arguments_error(self, capsys):
        assert main(["sweep", "ibmpg1", "--gamma", "1.5"]) == 2
        assert "--gamma" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--num-loads", "0"]) == 2
        assert "--num-loads" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--chunk-size", "0"]) == 2
        assert "--chunk-size" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--quantiles", "abc"]) == 2
        assert "--quantiles" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--quantiles", "1.5"]) == 2
        assert "--quantiles" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--quantiles", "0.9,0.5"]) == 2
        assert "--quantiles" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--top-k", "0"]) == 2
        assert "--top-k" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--bins", "0"]) == 2
        assert "--bins" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--threshold-mv", "-5"]) == 2
        assert "--threshold-mv" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert main(["sweep", "ibmpg1", "--executor", "serial", "--workers", "2"]) == 2
        assert "--executor serial" in capsys.readouterr().err

    def test_sweep_remote_needs_a_coordinator(self, monkeypatch, capsys):
        from repro.analysis.remote import COORDINATOR_ENV

        monkeypatch.delenv(COORDINATOR_ENV, raising=False)
        assert main(["sweep", "ibmpg1", "--executor", "remote"]) == 2
        err = capsys.readouterr().err
        assert "--coordinator" in err and COORDINATOR_ENV in err

    def test_sweep_executor_processes(self, tmp_path, capsys):
        """--executor processes shards the sweep and reports exact
        statistics identical to the threaded run (quantiles switch to the
        mergeable quantile sketch and are excluded)."""
        args = [
            "sweep", "ibmpg1",
            "--num-loads", "6", "--num-pads", "4",
            "--chunk-size", "7", "--top-k", "3",
        ]
        threads_path = tmp_path / "threads.json"
        process_path = tmp_path / "processes.json"
        assert (
            main(
                args
                + [
                    "--executor", "threads", "--workers", "2",
                    "--json-out", str(threads_path),
                ]
            )
            == 0
        )
        assert (
            main(
                args
                + [
                    "--executor", "processes", "--workers", "2",
                    "--json-out", str(process_path),
                ]
            )
            == 0
        )
        assert "executor" in capsys.readouterr().out

        import json

        threads = json.loads(threads_path.read_text())
        processes = json.loads(process_path.read_text())
        assert threads["executor"] == "threads"
        assert processes["executor"] == "processes"
        assert processes["workers"] == 2
        volatile = (
            "executor", "workers", "analysis_time_seconds", "scenarios_per_second",
            "quantiles",  # P2 (threads) vs mergeable quantile sketch (processes)
        )
        for record in (threads, processes):
            for key in volatile:
                record.pop(key)
        assert threads == processes

    def test_sweep_with_workers_matches_sequential_record(self, tmp_path, capsys):
        """--workers changes throughput only: the JSON record's statistics
        are identical to the sequential run's."""
        args = [
            "sweep", "ibmpg1",
            "--num-loads", "6", "--num-pads", "4",
            "--chunk-size", "5", "--top-k", "3",
        ]
        sequential_path = tmp_path / "sequential.json"
        parallel_path = tmp_path / "parallel.json"
        assert main(args + ["--workers", "1", "--json-out", str(sequential_path)]) == 0
        assert main(args + ["--workers", "2", "--json-out", str(parallel_path)]) == 0
        assert "solver workers" in capsys.readouterr().out

        import json

        sequential = json.loads(sequential_path.read_text())
        parallel = json.loads(parallel_path.read_text())
        assert (sequential["executor"], sequential["workers"]) == ("serial", 1)
        assert (parallel["executor"], parallel["workers"]) == ("threads", 2)
        for volatile in ("executor", "workers", "analysis_time_seconds", "scenarios_per_second"):
            sequential.pop(volatile)
            parallel.pop(volatile)
        assert sequential == parallel
