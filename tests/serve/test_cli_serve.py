"""CLI coverage for the ``serve`` / ``query`` verbs."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core.serialization import save_synopsis


@pytest.fixture
def synopsis_path(chain_synopsis, tmp_path):
    return save_synopsis(chain_synopsis, tmp_path / "synopsis.npz")


class TestQueryVerb:
    def test_local_query_human_output(self, synopsis_path, capsys):
        code = main(["query", "0,1", "--synopsis", str(synopsis_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "marginal (0, 1)" in out
        assert "path=covered" in out

    def test_local_query_json_output(self, synopsis_path, capsys):
        code = main(
            ["query", "0,4", "4,0", "--synopsis", str(synopsis_path), "--json"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        payloads = [json.loads(line) for line in lines]
        assert [p["attrs"] for p in payloads] == [[0, 4], [0, 4]]
        assert payloads[0]["path"] == "solved"
        # the duplicate came from the dedup'd batch path
        assert payloads[1]["cached"] is True

    def test_bad_attrs_exit(self, synopsis_path):
        with pytest.raises(SystemExit):
            main(["query", "0,x", "--synopsis", str(synopsis_path)])

    def test_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "0,1"])


class TestQueryAgainstServer:
    def test_query_url_round_trip(self, chain_synopsis, capsys):
        from repro.serve import MarginalServer, QueryEngine

        engine = QueryEngine(chain_synopsis)
        with MarginalServer(engine, port=0) as server:
            code = main(["query", "0,1", "--url", server.url, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["path"] == "covered"


class TestServeParser:
    def test_serve_args_parse(self):
        args = build_parser().parse_args(
            [
                "serve", "--synopsis", "s.npz", "--port", "0",
                "--cache-size", "64", "--workers", "2", "--timeout", "5",
            ]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.cache_size == 64

    @pytest.mark.parametrize("verb", [
        ["serve", "--synopsis", "s.npz"],
        ["store", "serve", "--store", "d"],
    ])
    @pytest.mark.parametrize("flag", ["--recon-method", "--method"])
    def test_recon_method_flag(self, verb, flag):
        args = build_parser().parse_args(verb + [flag, "residual"])
        assert args.method == "residual"
        # default stays None so the engine default (maxent) applies
        assert build_parser().parse_args(verb).method is None

    def test_recon_method_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--synopsis", "s.npz", "--recon-method", "nope"]
            )

    def test_query_recon_method_residual(self, synopsis_path, capsys):
        code = main([
            "query", "0,4", "--synopsis", str(synopsis_path),
            "--recon-method", "residual", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["path"] == "solved"
        assert payload["method"] == "residual"


class TestServeSynopsisMigration:
    """The ``serve_synopsis`` alias is gone; nothing inside this repo
    may call it again."""

    INTERNAL_CALLERS = (
        "src/repro/cli.py",
        "scripts/serve_smoke.py",
        "scripts/store_smoke.py",
    )

    def test_internal_callers_use_serve_source(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        for relative in self.INTERNAL_CALLERS:
            path = root / relative
            source = path.read_text()
            assert "serve_synopsis" not in source, (
                f"{relative} still calls the removed serve_synopsis"
            )
            assert "serve_source" in source or "serve_store" in source


class TestServeCommandsRun:
    """``repro serve`` and ``repro store serve`` share one run loop:
    one ``serving <mode> <target> (...) on <url>`` line, flushed even
    into a pipe, a live server of that mode, and a clean exit on
    SIGINT."""

    @pytest.mark.parametrize("mode", ["single", "store"])
    def test_announce_serve_and_interrupt(self, synopsis_path, tmp_path, mode):
        import os
        import queue
        import signal
        import subprocess
        import sys
        import threading
        from pathlib import Path

        from repro.serve import QueryClient

        src = str(Path(__file__).resolve().parents[2] / "src")
        # Block-buffered stdout, as under CI: the banner must be flushed.
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONUNBUFFERED", None)
        if mode == "single":
            target = str(synopsis_path)
            args = ["serve", "--synopsis", target]
        else:
            target = str(tmp_path / "store")
            assert main(
                ["store", "publish", "--store", target, "chain", str(synopsis_path)]
            ) == 0
            args = ["store", "serve", "--store", target, "--max-engines", "2"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args, "--port", "0",
             "--workers", "2", "--recon-method", "residual"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        lines: queue.Queue = queue.Queue()
        threading.Thread(
            target=lambda: lines.put(proc.stdout.readline()), daemon=True
        ).start()
        try:
            # Bounded: a banner stuck in the pipe buffer fails, not hangs.
            banner = lines.get(timeout=60).strip()
            assert banner.startswith(f"serving {mode} {target} (")
            url = banner.rsplit(" on ", 1)[1]
            client = QueryClient(url, dataset=None if mode == "single" else "chain")
            assert client.healthz()["mode"] == mode
            assert client.marginal((0, 4))["method"] == "residual"
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()
