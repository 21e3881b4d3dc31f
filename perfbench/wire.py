"""The served product as a child process: ``python -m repro serve --listen``."""

from __future__ import annotations

import os
import re
import select
import subprocess
import sys
from time import monotonic

_LISTENING = re.compile(r"serve: listening on (\S+):(\d+)")


class ServerProcess:
    """Start the server on an ephemeral port; ``stop`` terminates and reaps.

    Call :meth:`stop` in a ``finally``: the child must not outlive the
    benchmark whatever ends it.
    """

    def __init__(self, repo_root: str, dataset: str, scale: float,
                 seed: int, start_timeout_s: float = 120.0) -> None:
        env = dict(os.environ)
        src = os.path.join(repo_root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
            if env.get("PYTHONPATH") else src
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--listen", "127.0.0.1:0", "--dataset", dataset,
             "--scale", str(scale), "--seed", str(seed)],
            cwd=repo_root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            self.host, self.port = self._await_listening(start_timeout_s)
        except BaseException:
            self.stop()
            raise

    def _await_listening(self, timeout_s: float) -> tuple[str, int]:
        deadline = monotonic() + timeout_s
        seen: list[str] = []
        stdout = self.process.stdout
        while True:
            remaining = deadline - monotonic()
            if remaining <= 0:
                raise TimeoutError("server did not announce its port; "
                                   f"output so far: {seen!r}")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if not ready:
                continue
            line = stdout.readline()
            if not line:
                raise RuntimeError("server exited before listening "
                                   f"(code {self.process.wait()}): {seen!r}")
            seen.append(line.rstrip())
            match = _LISTENING.search(line)
            if match:
                return match.group(1), int(match.group(2))

    def stop(self) -> None:
        process = self.process
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
        process.wait()
        if process.stdout is not None:
            process.stdout.close()
